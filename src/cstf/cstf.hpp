// Umbrella header: the CSTF public API.
//
// Quickstart:
//   sparkle::Context ctx({.numNodes = 8});
//   auto X = tensor::paperAnalog("delicious3d-s");
//   cstf_core::CpAlsOptions opts{.rank = 2, .backend = Backend::kQcoo};
//   auto result = cstf_core::cpAls(ctx, X, opts);
#pragma once

#include "cstf/cost_model.hpp"     // IWYU pragma: export
#include "cstf/cp_als.hpp"         // IWYU pragma: export
#include "cstf/factors.hpp"        // IWYU pragma: export
#include "cstf/mttkrp_bigtensor.hpp" // IWYU pragma: export
#include "cstf/mttkrp_coo.hpp"     // IWYU pragma: export
#include "cstf/mttkrp_local.hpp"   // IWYU pragma: export
#include "cstf/mttkrp_qcoo.hpp"    // IWYU pragma: export
#include "cstf/options.hpp"        // IWYU pragma: export
#include "cstf/plan.hpp"           // IWYU pragma: export
#include "cstf/records.hpp"        // IWYU pragma: export
#include "cstf/run_report.hpp"     // IWYU pragma: export
