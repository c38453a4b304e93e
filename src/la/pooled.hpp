// Task dispatch shared by the pooled la functions (see matrix.hpp).
#pragma once

#include <cstddef>

#include "common/thread_pool.hpp"
#include "la/matrix.hpp"

namespace cstf::la {

/// fn(t) for t in [0, tasks), where tasks comes from pooledTasks: one task
/// runs inline on the caller, more run on `pool` with the caller joining.
template <typename F>
void runTasks(ThreadPool* pool, std::size_t tasks, F&& fn) {
  if (tasks == 1) {
    fn(std::size_t{0});
    return;
  }
  pool->parallelFor(tasks, fn);
}

}  // namespace cstf::la
