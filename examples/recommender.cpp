// Context-aware recommendation from a user x item x daypart rating tensor —
// the classic CP-decomposition application the paper's introduction
// motivates (tensors representing multi-dimensional behavioural data) —
// carried all the way through the serving layer: train with CP-ALS,
// export the model (a CSTFCKP1 file), load it back, and answer top-k queries
// through serve::Engine the way an online recommender would.
//
// We plant a ground truth: three taste communities, each preferring a
// disjoint item group, with community 2's preferences flipping between
// morning and evening. CP-ALS on the sparse observed ratings should
// recover enough structure to rank unseen in-community items above
// out-of-community ones.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "cstf/cstf.hpp"
#include "serve/engine.hpp"
#include "serve/model.hpp"
#include "tensor/coo_tensor.hpp"

using namespace cstf;

namespace {

constexpr Index kUsers = 120;
constexpr Index kItems = 90;
constexpr Index kDayparts = 4;  // morning / midday / evening / night
constexpr int kCommunities = 3;

int communityOf(Index user) { return int(user) % kCommunities; }
int itemGroupOf(Index item) { return int(item) / (kItems / kCommunities); }

/// Ground-truth affinity of a user for an item at a daypart.
double trueRating(Index u, Index i, Index d) {
  const int community = communityOf(u);
  const int group = std::min(itemGroupOf(i), kCommunities - 1);
  double base = (community == group) ? 4.5 : 1.2;
  if (community == 2 && group == 2) {
    // Community 2 watches its items in the evening, not the morning.
    base *= (d == 2) ? 1.4 : (d == 0 ? 0.4 : 1.0);
  }
  return base;
}

tensor::CooTensor observedRatings(double density, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<tensor::Nonzero> obs;
  for (Index u = 0; u < kUsers; ++u) {
    for (Index i = 0; i < kItems; ++i) {
      for (Index d = 0; d < kDayparts; ++d) {
        if (rng.nextDouble() > density) continue;
        const double noise = 0.3 * rng.nextGaussian();
        obs.push_back(
            tensor::makeNonzero3(u, i, d, trueRating(u, i, d) + noise));
      }
    }
  }
  return tensor::CooTensor({kUsers, kItems, kDayparts}, std::move(obs),
                           "ratings");
}

}  // namespace

int main() {
  sparkle::Context ctx(sparkle::ClusterConfig{.numNodes = 4});
  tensor::CooTensor X = observedRatings(/*density=*/0.25, /*seed=*/17);
  std::printf("observed ratings: %zu of %u cells (%.0f%%)\n", X.nnz(),
              kUsers * kItems * kDayparts,
              100.0 * X.density());

  cstf_core::CpAlsOptions opts;
  opts.rank = 6;
  opts.maxIterations = 25;
  opts.backend = cstf_core::Backend::kQcoo;
  opts.tolerance = 1e-7;
  auto result = cstf_core::cpAls(ctx, X, opts);
  std::printf("model fit: %.4f (%zu iterations)\n", result.finalFit,
              result.iterations.size());

  // Export the trained model the way `cstf factor --model-out` does, then
  // serve from the file — the artifact an online recommender would ship.
  serve::CpModel model;
  model.rank = opts.rank;
  model.dims = X.dims();
  model.lambda = result.lambda;
  model.factors = result.factors;
  model.finalFit = result.finalFit;
  const std::string path = serve::saveModel("recommender-model.cstf", model);
  const serve::Engine engine(serve::loadModel(path));
  std::printf("model exported to %s and reloaded for serving\n\n",
              path.c_str());

  // Rank all items for one user from each community, in the evening:
  // top-k completion along the item mode, exact under norm-bound pruning.
  int inGroupTop = 0;
  int total = 0;
  for (Index u : {Index(0), Index(1), Index(2)}) {
    const serve::TopKResult top =
        engine.topK(/*mode=*/1, {u, 0, /*daypart=*/2}, /*k=*/5);
    std::printf("user %u (community %d) — top 5 items in the evening "
                "(scored %llu of %u item rows, pruned %llu):\n",
                u, communityOf(u),
                static_cast<unsigned long long>(top.stats.rowsScanned),
                kItems,
                static_cast<unsigned long long>(top.stats.rowsPruned));
    for (const serve::TopKEntry& e : top.entries) {
      const bool match = itemGroupOf(e.index) == communityOf(u);
      std::printf("  item %2u (group %d)%s  score %.2f\n", e.index,
                  itemGroupOf(e.index), match ? " *" : "  ", e.score);
      inGroupTop += match ? 1 : 0;
      ++total;
    }
  }
  std::printf("\n%d of %d top recommendations fall in the user's own "
              "community (* = in-community)\n",
              inGroupTop, total);

  // Context-awareness check: community-2 users should score their items
  // higher in the evening than in the morning.
  double evening = 0;
  double morning = 0;
  int n = 0;
  for (Index u = 2; u < kUsers; u += kCommunities) {
    for (Index i = Index(2 * (kItems / 3)); i < kItems; ++i) {
      evening += engine.predict({u, i, 2});
      morning += engine.predict({u, i, 0});
      ++n;
    }
  }
  std::printf("community-2 mean predicted rating: evening %.2f vs morning "
              "%.2f (ground truth plants an evening preference)\n",
              evening / n, morning / n);
  return 0;
}
