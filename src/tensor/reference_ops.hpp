// Sequential reference implementations — the correctness oracles for the
// distributed backends.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"

namespace cstf::tensor {

/// Algorithm 2 of the paper, generalized to order N: for every nonzero,
/// scale the Hadamard product of the fixed factors' rows by the value and
/// accumulate into row idx[mode] of the result. `factors` has one matrix
/// per mode (the one at `mode` is ignored); all must share column count R.
la::Matrix referenceMttkrp(const CooTensor& t,
                           const std::vector<la::Matrix>& factors,
                           ModeId mode);

/// Textbook MTTKRP through explicit unfolding and Khatri-Rao product,
/// M = X(n) * (A_N (.) ... (.) A_1, skipping A_n). Exponential in memory —
/// tests only. Cross-checks both referenceMttkrp and the backends against
/// the paper's Equation 1.
la::Matrix mttkrpViaUnfolding(const CooTensor& t,
                              const std::vector<la::Matrix>& factors,
                              ModeId mode);

/// <X, [[lambda; A_1..A_N]]>: inner product of the sparse tensor with the
/// CP reconstruction (iterates nonzeros only).
double innerProductWithModel(const CooTensor& t,
                             const std::vector<la::Matrix>& factors,
                             const std::vector<double>& lambda);

/// ||[[lambda; A_1..A_N]]||_F^2 = lambda^T (hadamard of grams) lambda.
double modelNormSq(const std::vector<la::Matrix>& factors,
                   const std::vector<double>& lambda);

/// modelNormSq from precomputed grams (grams[m] = A_m^T A_m, in mode
/// order): the same formula, bit-identical when each gram is la::gram of
/// its factor. CP-ALS passes its gram cache instead of recomputing N grams.
double modelNormSqFromGrams(const std::vector<la::Matrix>& grams,
                            const std::vector<double>& lambda);

/// CP fit = 1 - ||X - model||_F / ||X||_F (computed without densifying);
/// NaN when the model is not finite.
double cpFit(const CooTensor& t, const std::vector<la::Matrix>& factors,
             const std::vector<double>& lambda);

/// Dense reconstruction of the CP model at every cell (tiny tensors only);
/// returned as a flat row-major array over the full dimension product.
std::vector<double> denseReconstruction(
    const std::vector<Index>& dims, const std::vector<la::Matrix>& factors,
    const std::vector<double>& lambda);

}  // namespace cstf::tensor
