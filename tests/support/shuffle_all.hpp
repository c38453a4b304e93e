// One plain hash shuffle for engine tests. reduceByKey without a map-side
// combiner ships every record exactly once, so the shuffle stage meters the
// input's records and bytes; values of a repeated key are then summed by
// the narrow merge after the fetch.
#pragma once

#include <memory>
#include <utility>

#include "sparkle/sparkle.hpp"

namespace cstf::testsupport {

template <typename K, typename V>
sparkle::Rdd<std::pair<K, V>> shuffleAll(
    const sparkle::Rdd<std::pair<K, V>>& rdd,
    std::shared_ptr<sparkle::Partitioner> part) {
  return rdd.reduceByKey([](V& a, const V& b) { a += b; },
                         std::move(part), /*mapSideCombine=*/false);
}

}  // namespace cstf::testsupport
