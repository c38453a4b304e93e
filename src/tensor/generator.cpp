#include "tensor/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "la/matrix.hpp"

namespace cstf::tensor {

namespace {

/// Exact coordinate identity for duplicate rejection during sampling (real
/// datasets list each coordinate once; Zipf-skewed draws would otherwise
/// collide heavily on the head indices).
struct CoordKey {
  std::array<Index, kMaxOrder> idx{};

  friend bool operator==(const CoordKey& a, const CoordKey& b) {
    return a.idx == b.idx;
  }
};

struct CoordKeyHash {
  std::size_t operator()(const CoordKey& k) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (Index i : k.idx) h = mix64(h ^ i);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

CooTensor generateRandom(const GeneratorOptions& opts) {
  CSTF_CHECK(!opts.dims.empty() && opts.dims.size() <= kMaxOrder,
             "generator: bad order");
  CSTF_CHECK(opts.nnz > 0, "generator: nnz must be positive");
  for (Index d : opts.dims) CSTF_CHECK(d > 0, "generator: zero dimension");

  const ModeId order = static_cast<ModeId>(opts.dims.size());
  Pcg32 rng(opts.seed);

  std::vector<ZipfSampler> zipf;
  std::vector<bool> useZipf(order, false);
  for (ModeId m = 0; m < order; ++m) {
    const double s =
        m < opts.zipfSkew.size() ? opts.zipfSkew[m] : 0.0;
    if (s > 0.0) {
      zipf.emplace_back(opts.dims[m], s);
      useZipf[m] = true;
    } else {
      zipf.emplace_back(1, 1.0);  // placeholder, unused
    }
  }

  std::vector<Nonzero> nzs;
  nzs.reserve(opts.nnz);
  std::unordered_set<CoordKey, CoordKeyHash> seen;
  seen.reserve(opts.nnz * 2);
  const std::size_t maxAttempts = 50 * opts.nnz;
  for (std::size_t attempt = 0;
       nzs.size() < opts.nnz && attempt < maxAttempts; ++attempt) {
    Nonzero nz;
    nz.order = order;
    CoordKey key;
    for (ModeId m = 0; m < order; ++m) {
      nz.idx[m] = useZipf[m] ? zipf[m].sample(rng)
                             : rng.nextBounded(opts.dims[m]);
      key.idx[m] = nz.idx[m];
    }
    if (!seen.insert(key).second) continue;  // duplicate coordinate
    // (0, valueMax]: avoid exact zeros, which COO formats do not store.
    nz.val = (1.0 - rng.nextDouble()) * opts.valueMax;
    nzs.push_back(nz);
  }

  CooTensor t(opts.dims, std::move(nzs), opts.name);
  t.coalesce();  // canonical (sorted) order; no merging left to do
  return t;
}

GeneratorOptions paperAnalogOptions(const std::string& name, double scale) {
  // Checked before the cast: converting a double past Index's range is UB.
  auto dim = [&](double d) {
    const double rows = std::max(2.0, d * scale);
    if (!(std::isfinite(scale) && scale > 0.0) ||
        rows > double(std::numeric_limits<Index>::max())) {
      throw Error(strprintf(
          "paper analog %s: scale %g must be finite, > 0 and keep every "
          "mode within %u rows",
          name.c_str(), scale, std::numeric_limits<Index>::max()));
    }
    return static_cast<Index>(rows);
  };
  auto count = [&](double n) {
    return static_cast<std::size_t>(std::max(16.0, n * scale));
  };

  GeneratorOptions o;
  o.name = name;
  if (name == "delicious3d-s") {
    // user x item x tag (delicious4d with the date mode removed).
    o.dims = {dim(17300), dim(8000), dim(6000)};
    o.nnz = count(140000);
    o.zipfSkew = {0.55, 0.6, 0.65};
    o.seed = 1001;
  } else if (name == "nell1-s") {
    // noun x verb x noun triplets from the NELL project.
    o.dims = {dim(12000), dim(9000), dim(25500)};
    o.nnz = count(144000);
    o.zipfSkew = {0.6, 0.7, 0.6};
    o.seed = 1002;
  } else if (name == "synt3d-s") {
    // Uniformly random synthetic tensor, like the paper's synt3d.
    o.dims = {dim(15000), dim(15000), dim(15000)};
    o.nnz = count(200000);
    o.zipfSkew = {};
    o.seed = 1003;
  } else if (name == "flickr-s") {
    // user x item x tag x date.
    o.dims = {dim(3200), dim(28000), dim(16000), 731};
    o.nnz = count(112000);
    o.zipfSkew = {0.55, 0.6, 0.65, 0.3};
    o.seed = 1004;
  } else if (name == "delicious4d-s") {
    // user x item x tag x date (date at day granularity).
    o.dims = {dim(5300), dim(17300), dim(2500), 1443};
    o.nnz = count(140000);
    o.zipfSkew = {0.55, 0.6, 0.65, 0.3};
    o.seed = 1005;
  } else {
    throw Error("unknown paper-analog dataset: " + name);
  }
  return o;
}

CooTensor paperAnalog(const std::string& name, double scale) {
  return generateRandom(paperAnalogOptions(name, scale));
}

std::vector<std::string> paperAnalogNames() {
  return {"delicious3d-s", "nell1-s", "synt3d-s", "flickr-s",
          "delicious4d-s"};
}

CooTensor generateZipf(const std::vector<Index>& dims, std::size_t nnz,
                       double skew, std::uint64_t seed) {
  GeneratorOptions o;
  o.dims = dims;
  o.nnz = nnz;
  o.zipfSkew.assign(dims.size(), skew);
  o.seed = seed;
  o.name = strprintf("zipf-%.2f", skew);
  return generateRandom(o);
}

ZipfStream splitIntoStream(const CooTensor& full, std::size_t deltaBatches,
                           double deltaFraction, std::uint64_t seed) {
  CSTF_CHECK(deltaBatches > 0, "splitIntoStream: need >= 1 delta batch");
  CSTF_CHECK(deltaFraction > 0.0 && deltaFraction < 1.0,
             "splitIntoStream: deltaFraction must be in (0, 1)");
  ZipfStream s;
  s.deltas.resize(deltaBatches);
  for (std::size_t b = 0; b < deltaBatches; ++b) {
    s.deltas[b].seq = b + 1;
    s.deltas[b].dims = full.dims();
  }
  // Assignment draws come from their own stream keyed off the generator
  // seed, so the split is deterministic and independent of how `full` was
  // sampled.
  Pcg32 rng(mix64(seed ^ 0x5712ea3ULL));
  std::vector<Nonzero> baseNzs;
  baseNzs.reserve(full.nnz());
  for (const Nonzero& nz : full.nonzeros()) {
    if (rng.nextDouble() < deltaFraction) {
      s.deltas[rng.nextBounded(static_cast<std::uint32_t>(deltaBatches))]
          .entries.push_back(nz);
    } else {
      baseNzs.push_back(nz);
    }
  }
  // Degenerate split (every draw landed on one side): keep both sides
  // nonempty so downstream warm starts and appends are well-defined.
  if (baseNzs.empty()) {
    for (auto& d : s.deltas) {
      if (d.entries.empty()) continue;
      baseNzs.push_back(d.entries.back());
      d.entries.pop_back();
      break;
    }
  }
  CSTF_CHECK(!baseNzs.empty(), "splitIntoStream: empty tensor");
  s.base = CooTensor(full.dims(), std::move(baseNzs),
                     full.name().empty() ? "stream-base"
                                         : full.name() + "-base");
  s.base.coalesce();
  return s;
}

ZipfStream generateZipfStream(const std::vector<Index>& dims, std::size_t nnz,
                              double skew, std::uint64_t seed,
                              std::size_t deltaBatches,
                              double deltaFraction) {
  // The full tensor is bit-for-bit the plain generateZipf result; only the
  // base/batch assignment comes from the split's own seeded stream.
  return splitIntoStream(generateZipf(dims, nnz, skew, seed), deltaBatches,
                         deltaFraction, seed);
}

CooTensor generateLowRank(const std::vector<Index>& dims, std::size_t rank,
                          std::size_t nnz, std::uint64_t seed, double noise) {
  CSTF_CHECK(!dims.empty() && dims.size() <= kMaxOrder,
             "generateLowRank: bad order");
  const ModeId order = static_cast<ModeId>(dims.size());
  Pcg32 rng(seed);

  // Gaussian factors give a well-conditioned planted model (uniform [0,1)
  // factors have strongly correlated columns, which slows ALS recovery).
  std::vector<la::Matrix> factors;
  factors.reserve(order);
  for (ModeId m = 0; m < order; ++m) {
    la::Matrix f(dims[m], rank);
    for (std::size_t i = 0; i < f.rows(); ++i) {
      for (std::size_t r = 0; r < rank; ++r) f(i, r) = rng.nextGaussian();
    }
    factors.push_back(std::move(f));
  }

  auto valueAt = [&](const Nonzero& nz) {
    double v = 0.0;
    for (std::size_t r = 0; r < rank; ++r) {
      double prod = 1.0;
      for (ModeId m = 0; m < order; ++m) prod *= factors[m](nz.idx[m], r);
      v += prod;
    }
    return v + (noise > 0.0 ? noise * rng.nextGaussian() : 0.0);
  };

  double cellsD = 1.0;
  for (Index d : dims) cellsD *= static_cast<double>(d);

  std::vector<Nonzero> nzs;
  if (static_cast<double>(nnz) >= cellsD) {
    // Fully observed grid: the tensor IS exactly rank `rank` (plus noise),
    // so rank-R CP-ALS must reach fit ~1 — the end-to-end oracle. A
    // randomly *sampled* subset would be a masked tensor, which is not
    // low-rank when the missing cells are treated as zeros.
    const auto cells = static_cast<std::size_t>(cellsD);
    nzs.reserve(cells);
    Nonzero nz;
    nz.order = order;
    std::vector<Index> idx(order, 0);
    for (std::size_t c = 0; c < cells; ++c) {
      for (ModeId m = 0; m < order; ++m) nz.idx[m] = idx[m];
      nz.val = valueAt(nz);
      nzs.push_back(nz);
      for (ModeId m = order; m-- > 0;) {
        if (++idx[m] < dims[m]) break;
        idx[m] = 0;
      }
    }
  } else {
    nzs.reserve(nnz);
    std::unordered_set<CoordKey, CoordKeyHash> seen;
    seen.reserve(nnz * 2);
    const std::size_t maxAttempts = 50 * nnz;
    for (std::size_t attempt = 0; nzs.size() < nnz && attempt < maxAttempts;
         ++attempt) {
      Nonzero nz;
      nz.order = order;
      CoordKey key;
      for (ModeId m = 0; m < order; ++m) {
        nz.idx[m] = rng.nextBounded(dims[m]);
        key.idx[m] = nz.idx[m];
      }
      if (!seen.insert(key).second) continue;
      nz.val = valueAt(nz);
      nzs.push_back(nz);
    }
  }

  CooTensor t(dims, std::move(nzs), strprintf("lowrank-r%zu", rank));
  t.coalesce();
  return t;
}

}  // namespace cstf::tensor
