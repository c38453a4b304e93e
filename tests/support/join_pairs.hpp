// The joined pairs (k, (v, w)) for engine tests: Rdd::join emits what its
// callable returns, and this callable returns the pair itself.
#pragma once

#include <memory>
#include <utility>

#include "sparkle/sparkle.hpp"

namespace cstf::testsupport {

template <typename K, typename V, typename W>
sparkle::Rdd<std::pair<K, std::pair<V, W>>> joinPairs(
    const sparkle::Rdd<std::pair<K, V>>& left,
    const sparkle::Rdd<std::pair<K, W>>& right,
    std::shared_ptr<sparkle::Partitioner> part = nullptr) {
  return left.join(
      right,
      [](const std::pair<K, V>& kv, const W& w) {
        return std::pair<K, std::pair<V, W>>(kv.first, {kv.second, w});
      },
      0.0, std::move(part));
}

}  // namespace cstf::testsupport
