#include "tensor/delta.hpp"

#include <cmath>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace cstf::tensor {

namespace {

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

CoordKey keyOf(const Nonzero& nz) {
  CoordKey k;
  for (ModeId m = 0; m < nz.order; ++m) k.idx[m] = nz.idx[m];
  return k;
}

}  // namespace

void Delta::validate() const {
  CSTF_CHECK(!dims.empty() && dims.size() <= kMaxOrder, "delta: bad order");
  for (const Nonzero& nz : entries) {
    CSTF_CHECK(nz.order == order(),
               strprintf("delta seq %llu: entry order %d != tensor order %d",
                         static_cast<unsigned long long>(seq), int(nz.order),
                         int(order())));
    for (ModeId m = 0; m < nz.order; ++m) {
      CSTF_CHECK(nz.idx[m] < dims[m],
                 strprintf("delta seq %llu: index %u out of range for mode "
                           "%d (dim %u)",
                           static_cast<unsigned long long>(seq), nz.idx[m],
                           int(m) + 1, dims[m]));
    }
    CSTF_CHECK(std::isfinite(nz.val),
               strprintf("delta seq %llu: value %g is not finite",
                         static_cast<unsigned long long>(seq), nz.val));
  }
}

void applyDelta(CooTensor& t, const Delta& d) {
  d.validate();
  CSTF_CHECK(d.dims == t.dims(),
             strprintf("delta seq %llu dims do not match the tensor",
                       static_cast<unsigned long long>(d.seq)));
  std::vector<Nonzero>& nzs = t.mutableNonzeros();
  std::unordered_map<CoordKey, std::size_t, CoordKeyHash> pos;
  pos.reserve(nzs.size() * 2);
  for (std::size_t i = 0; i < nzs.size(); ++i) pos.emplace(keyOf(nzs[i]), i);
  for (const Nonzero& nz : d.entries) {
    const auto it = pos.find(keyOf(nz));
    if (it != pos.end()) {
      nzs[it->second].val = nz.val;  // upsert: replace, never sum
    } else {
      pos.emplace(keyOf(nz), nzs.size());
      nzs.push_back(nz);
    }
  }
  // No duplicate coordinates survive an upsert, so coalescing only restores
  // canonical sorted order and drops zero-valued tombstones.
  t.coalesce();
}

CooTensor materializeStream(const CooTensor& base,
                            const std::vector<Delta>& deltas) {
  CooTensor t = base;
  std::uint64_t prevSeq = 0;
  for (const Delta& d : deltas) {
    CSTF_CHECK(d.seq > prevSeq,
               strprintf("materializeStream: delta seq %llu out of order "
                         "(previous %llu)",
                         static_cast<unsigned long long>(d.seq),
                         static_cast<unsigned long long>(prevSeq)));
    prevSeq = d.seq;
    applyDelta(t, d);
  }
  return t;
}

}  // namespace cstf::tensor
