// Key hashing and partition assignment.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cstf::sparkle {

/// Hashes a key to 64 bits for partitioning. Integral keys are mixed with
/// SplitMix64 — libstdc++'s identity std::hash would map the contiguous,
/// structured index spaces of tensor modes onto a handful of partitions.
template <typename K>
struct KeyHash {
  std::uint64_t operator()(const K& k) const {
    if constexpr (std::is_integral_v<K>) {
      return mix64(static_cast<std::uint64_t>(k));
    } else {
      return mix64(static_cast<std::uint64_t>(std::hash<K>{}(k)));
    }
  }
};

/// Pair keys (e.g. the (row, column) keys of BIGtensor's matricized
/// stages) hash by mixing both components.
template <typename A, typename B>
struct KeyHash<std::pair<A, B>> {
  std::uint64_t operator()(const std::pair<A, B>& k) const {
    const std::uint64_t ha = KeyHash<A>{}(k.first);
    const std::uint64_t hb = KeyHash<B>{}(k.second);
    return mix64(ha ^ (hb + 0x9e3779b97f4a7c15ULL + (ha << 6) + (ha >> 2)));
  }
};

/// Adaptor so engine-internal std::unordered_map containers (join builds,
/// combiners) hash through KeyHash — std::hash has no std::pair support.
template <typename K>
struct StdKeyHash {
  std::size_t operator()(const K& k) const {
    return static_cast<std::size_t>(KeyHash<K>{}(k));
  }
};

class Partitioner {
 public:
  explicit Partitioner(std::size_t numPartitions) : n_(numPartitions) {
    CSTF_CHECK(numPartitions > 0, "partitioner needs >= 1 partition");
  }
  virtual ~Partitioner() = default;

  std::size_t numPartitions() const { return n_; }
  /// Map a hashed key to a partition index in [0, numPartitions).
  virtual std::size_t partitionOf(std::uint64_t keyHash) const = 0;

 protected:
  std::size_t n_;
};

/// Spark's default: hash modulo partition count.
class HashPartitioner : public Partitioner {
 public:
  using Partitioner::Partitioner;
  std::size_t partitionOf(std::uint64_t keyHash) const override {
    return keyHash % n_;
  }
};

/// How a shuffle deals with heavy-hitter keys (power-law tensor modes).
///   kHash      — plain hash partitioning (Spark's default; the behaviour
///                every existing code path had before skew mitigation).
///   kFrequency — a key-frequency census drives a FrequencyAwarePartitioner
///                that bin-packs the heavy keys onto least-loaded
///                partitions; the tail still hashes.
///   kReplicate — heavy factor rows are broadcast and joined map-side
///                (skew-join), bypassing the shuffle for those keys; the
///                tail takes the normal join path.
enum class SkewPolicy { kHash, kFrequency, kReplicate };

inline const char* skewPolicyName(SkewPolicy p) {
  switch (p) {
    case SkewPolicy::kHash: return "hash";
    case SkewPolicy::kFrequency: return "frequency";
    case SkewPolicy::kReplicate: return "replicate";
  }
  return "?";
}

inline SkewPolicy skewPolicyFromName(const std::string& s) {
  if (s == "hash") return SkewPolicy::kHash;
  if (s == "frequency") return SkewPolicy::kFrequency;
  if (s == "replicate") return SkewPolicy::kReplicate;
  throw Error("invalid value '" + s +
              "' for --skew-policy (expected hash|frequency|replicate)");
}

/// Greedy bin-packing of known heavy keys, hash for the tail.
///
/// Built from a census of (key hash, estimated record count) heavy hitters:
/// every partition's load is seeded with its hash-assigned share of the
/// tail, then the heavy keys — heaviest first — are pinned one by one onto
/// the currently least-loaded partition (LPT scheduling, the classic 4/3
/// max-load bound). Keys are identified by their KeyHash value, the same
/// 64-bit hash partitionOf receives, so the partitioner stays key-type
/// agnostic. Lookup is one hash-map probe; misses fall back to `hash % n`,
/// which makes the empty-census partitioner behave exactly like
/// HashPartitioner.
class FrequencyAwarePartitioner : public Partitioner {
 public:
  /// `heavyKeys` maps key hash -> estimated record count (need not be
  /// sorted; duplicates keep the larger weight). `tailWeight` is the
  /// estimated record count NOT covered by heavyKeys, spread uniformly as
  /// the seed load.
  FrequencyAwarePartitioner(
      std::size_t numPartitions,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> heavyKeys,
      std::uint64_t tailWeight = 0)
      : Partitioner(numPartitions) {
    // Deterministic order: weight descending, hash ascending as tie-break.
    std::sort(heavyKeys.begin(), heavyKeys.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    std::vector<double> load(n_, static_cast<double>(tailWeight) /
                                     static_cast<double>(n_));
    assigned_.reserve(heavyKeys.size());
    for (const auto& [hash, weight] : heavyKeys) {
      if (!assigned_.emplace(hash, 0).second) continue;  // duplicate hash
      std::size_t best = 0;
      for (std::size_t p = 1; p < n_; ++p) {
        if (load[p] < load[best]) best = p;
      }
      assigned_[hash] = best;
      load[best] += static_cast<double>(weight);
    }
  }

  std::size_t partitionOf(std::uint64_t keyHash) const override {
    const auto it = assigned_.find(keyHash);
    return it != assigned_.end() ? it->second : keyHash % n_;
  }

  std::size_t numPinnedKeys() const { return assigned_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::size_t> assigned_;
};

/// Co-partitioning test: two datasets produced with the *same partitioner
/// object* are co-partitioned (Spark's rule; partitioner equality by
/// identity keeps the contract simple and conservative).
inline bool samePartitioning(const std::shared_ptr<Partitioner>& a,
                             const std::shared_ptr<Partitioner>& b) {
  return a != nullptr && a == b;
}

}  // namespace cstf::sparkle
