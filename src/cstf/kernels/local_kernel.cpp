#include "cstf/kernels/local_kernel.hpp"

namespace cstf::cstf_core {

// Defined in coo_kernel.cpp / csf_kernel.cpp.
const LocalMttkrpKernel& cooLocalKernel();
const LocalMttkrpKernel& csfLocalKernel();

const LocalMttkrpKernel& localKernelFor(sparkle::LocalKernel kind) {
  switch (kind) {
    case sparkle::LocalKernel::kCoo: return cooLocalKernel();
    case sparkle::LocalKernel::kCsf: return csfLocalKernel();
  }
  CSTF_CHECK(false, "unknown local kernel");
  return cooLocalKernel();
}

}  // namespace cstf::cstf_core
