// The benchmark's three workloads. Each builds its inputs from
// Options::seed, sets up Options::setups times, measures for
// Options::seconds, checks its outputs, and returns the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#pragma once

#include "common.hpp"

namespace perfbench {

Report run_train_host(const Options& opt);
Report run_serve_host(const Options& opt);
Report run_fleet_sim(const Options& opt);

}  // namespace perfbench
