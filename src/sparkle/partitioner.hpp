// Key hashing and partition assignment.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

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

/// Co-partitioning test: two datasets produced with the *same partitioner
/// object* are co-partitioned (Spark's rule; partitioner equality by
/// identity keeps the contract simple and conservative).
inline bool samePartitioning(const std::shared_ptr<Partitioner>& a,
                             const std::shared_ptr<Partitioner>& b) {
  return a != nullptr && a == b;
}

}  // namespace cstf::sparkle
