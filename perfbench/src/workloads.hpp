// The three benchmark workloads. Each builds its inputs from the seed,
// sets up (timed, several times), measures for `options.seconds`, checks
// every op's output, and reports end-to-end metrics — or, when `tracer`
// is non-null, per-layer metrics derived from the spans it records.
#pragma once

#include "common.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// The Fig. 8 mix x budget x policy grid at paper scale.
[[nodiscard]] Outcome run_sweep_grid(const RunOptions& options,
                                     Tracer* tracer,
                                     ps::obs::MetricsRegistry* registry);

/// Closed-loop control rounds of a root daemon serving 10k jobs through
/// four rack connections.
[[nodiscard]] Outcome run_tree_round(const RunOptions& options,
                                     Tracer* tracer,
                                     ps::obs::MetricsRegistry* registry);

/// One simulated week of a 900-node facility under a brownout budget.
[[nodiscard]] Outcome run_facility_week(const RunOptions& options,
                                        Tracer* tracer,
                                        ps::obs::MetricsRegistry* registry);

}  // namespace perfbench
