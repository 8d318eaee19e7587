#pragma once

#include <optional>

#include "core/policy.hpp"
#include "rm/allocation.hpp"

namespace ps::core {

enum class RmOutcome { kApplied, kHeld, kClamped };

struct RmStepResult {
  RmOutcome outcome = RmOutcome::kApplied;
  /// The caps to program (the degraded output, clamped or not); empty
  /// when held.
  rm::PowerAllocation caps;
  /// Watts the degradation and the clamp moved off the raw policy split,
  /// summed per limit.
  double shed_watts = 0.0;

  /// The output exceeded the enforced budget: held or clamped.
  [[nodiscard]] bool over_budget() const noexcept {
    return outcome != RmOutcome::kApplied;
  }
};

/// Scales `allocation` onto the context's budget, lowest SLA class first,
/// never below a job's `min_settable_cap_watts` (CPU limits) or
/// `gpu_min_cap_watts` (GPU limits).
[[nodiscard]] rm::PowerAllocation clamp_to_budget(
    const PolicyContext& context, const rm::PowerAllocation& allocation);

/// The system RM's decision for one epoch, shared by every transport:
/// allocate with `policy` and apply_sla_degradation; when `enforce` is
/// set and the output exceeds the budget (plus its
/// budget_tolerance_watts()), hold the caps in force if their total
/// `held_watts` fits, else clamp the output onto the budget. The
/// invariants run once, over the returned caps: each within its job's
/// [floor, TDP], and, when enforced, the total within max(budget,
/// floors).
[[nodiscard]] RmStepResult rm_step(const Policy& policy,
                                   const PolicyContext& context,
                                   std::optional<double> held_watts,
                                   bool enforce);

/// A host's launch caps before the first RM step: its uniform share of
/// the budget split CPU:GPU by TDP ratio (all CPU when `gpu_tdp` is 0).
struct LaunchCaps {
  double cpu_watts;
  double gpu_watts;
};
[[nodiscard]] LaunchCaps split_launch_share(double share_watts,
                                            double cpu_tdp_watts,
                                            double gpu_tdp_watts);

}  // namespace ps::core
