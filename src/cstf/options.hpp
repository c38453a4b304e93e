// Shared backend selector and knobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace cstf::cstf_core {

/// Which MTTKRP/CP-ALS implementation runs.
///   kCoo       — CSTF-COO (paper §4.1)
///   kQcoo      — CSTF-QCOO queue strategy (paper §4.2)
///   kBigtensor — GigaTensor-style baseline (paper §4.3); 3rd-order only,
///                normally run with ExecutionMode::kHadoop
///   kReference — sequential oracle (tests)
enum class Backend { kCoo, kQcoo, kBigtensor, kReference };

inline const char* backendName(Backend b) {
  switch (b) {
    case Backend::kCoo: return "CSTF-COO";
    case Backend::kQcoo: return "CSTF-QCOO";
    case Backend::kBigtensor: return "BIGtensor";
    case Backend::kReference: return "reference";
  }
  return "?";
}

inline Backend backendFromName(const std::string& s) {
  if (s == "coo" || s == "CSTF-COO") return Backend::kCoo;
  if (s == "qcoo" || s == "CSTF-QCOO") return Backend::kQcoo;
  if (s == "bigtensor" || s == "BIGtensor") return Backend::kBigtensor;
  if (s == "reference") return Backend::kReference;
  throw Error("invalid value '" + s +
              "' for --backend (expected coo|qcoo|bigtensor|reference)");
}

struct MttkrpOptions {
  /// Partitions for shuffles (0 = the context's default parallelism).
  std::size_t numPartitions = 0;
  /// Spark-style map-side combining in the final reduceByKey. Only the
  /// join-chain paths (COO, QCOO, BIGtensor) read it: the broadcast-local
  /// path never combines, because its kernels already emit one row per
  /// index per partition.
  bool mapSideCombine = true;
};

}  // namespace cstf::cstf_core
