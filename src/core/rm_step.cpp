#include "core/rm_step.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/degradation.hpp"
#include "core/invariants.hpp"
#include "rm/power_manager.hpp"
#include "util/error.hpp"

namespace ps::core {

namespace {

/// Watts the limits that lost gave up between two same-shaped allocations.
double watts_moved(const rm::PowerAllocation& from,
                   const rm::PowerAllocation& to) {
  double moved = 0.0;
  const auto add = [&moved](const auto& before, const auto& after) {
    for (std::size_t j = 0; j < before.size(); ++j) {
      for (std::size_t h = 0; h < before[j].size(); ++h) {
        moved += std::max(0.0, before[j][h] - after[j][h]);
      }
    }
  };
  add(from.job_host_caps, to.job_host_caps);
  add(from.job_host_gpu_caps, to.job_host_gpu_caps);
  return moved;
}

void check_step_invariants(const PolicyContext& context,
                           const rm::PowerAllocation& caps, bool enforce) {
  double floors = 0.0;
  for (std::size_t j = 0; j < caps.job_host_caps.size(); ++j) {
    const runtime::JobCharacterization& job = context.jobs[j];
    for (const double cap : caps.job_host_caps[j]) {
      invariants::check_cap_bounds(cap, job.min_settable_cap_watts,
                                   context.job_tdp_watts(j), 0.5,
                                   "rm_step.cap");
      floors += job.min_settable_cap_watts;
    }
    const std::vector<double>& gpu_caps = caps.job_gpu_caps(j);
    for (std::size_t h = 0; h < gpu_caps.size(); ++h) {
      // Only a host that runs a GPU phase has a GPU range to hold.
      if (h < job.host_gpu_needed_watts.size() &&
          job.host_gpu_needed_watts[h] > 0.0) {
        invariants::check_cap_bounds(gpu_caps[h], job.gpu_min_cap_watts,
                                     job.gpu_tdp_watts, 0.5,
                                     "rm_step.gpu_cap");
      }
      floors += job.gpu_min_cap_watts;
    }
  }
  if (enforce) {
    invariants::check_caps_fit_budget(
        caps.total_watts(), std::max(context.system_budget_watts, floors),
        caps.host_count(), "rm_step.budget");
  }
}

}  // namespace

rm::PowerAllocation clamp_to_budget(const PolicyContext& context,
                                    const rm::PowerAllocation& allocation) {
  PS_REQUIRE(allocation.job_host_caps.size() == context.jobs.size(),
             "allocation has a different number of jobs than the context");
  std::vector<std::vector<double>> floors;
  std::vector<std::vector<double>> gpu_floors;
  std::vector<sim::SlaClass> classes;
  for (std::size_t j = 0; j < context.jobs.size(); ++j) {
    floors.emplace_back(allocation.job_host_caps[j].size(),
                        context.jobs[j].min_settable_cap_watts);
    if (j < allocation.job_host_gpu_caps.size()) {
      gpu_floors.emplace_back(allocation.job_host_gpu_caps[j].size(),
                              context.jobs[j].gpu_min_cap_watts);
    }
    classes.push_back(context.jobs[j].sla_class);
  }
  return rm::clamp_allocation_to_budget(allocation, floors,
                                        context.system_budget_watts,
                                        gpu_floors, classes);
}

RmStepResult rm_step(const Policy& policy, const PolicyContext& context,
                     std::optional<double> held_watts, bool enforce) {
  const double budget = context.system_budget_watts;
  RmStepResult step;
  step.caps = policy.allocate(context);
  // Degradation is the identity on a single-class mix: skip its copy.
  if (has_multiple_sla_classes(context)) {
    rm::PowerAllocation degraded =
        apply_sla_degradation(context, step.caps, budget, "rm_step.degrade");
    step.shed_watts = watts_moved(step.caps, degraded);
    step.caps = std::move(degraded);
  }
  const double tolerance = step.caps.budget_tolerance_watts();
  if (enforce && !step.caps.within_budget(budget, tolerance)) {
    // An output the site would reject: keep the caps in force while they
    // still fit; if a revision left them over budget too, clamp.
    if (held_watts.has_value() && *held_watts <= budget + tolerance) {
      step.outcome = RmOutcome::kHeld;
      step.caps = {};
      return step;
    }
    rm::PowerAllocation clamped = clamp_to_budget(context, step.caps);
    step.shed_watts += watts_moved(step.caps, clamped);
    step.caps = std::move(clamped);
    step.outcome = RmOutcome::kClamped;
  }
  check_step_invariants(context, step.caps, enforce);
  return step;
}

LaunchCaps split_launch_share(double share_watts, double cpu_tdp_watts,
                              double gpu_tdp_watts) {
  const double cpu_fraction = cpu_tdp_watts / (cpu_tdp_watts + gpu_tdp_watts);
  return {share_watts * cpu_fraction, share_watts * (1.0 - cpu_fraction)};
}

}  // namespace ps::core
