#include "core/coordination.hpp"

#include <algorithm>
#include <cmath>

#include "core/invariants.hpp"
#include "core/rm_step.hpp"
#include "obs/replay.hpp"
#include "rm/power_manager.hpp"
#include "util/error.hpp"

namespace ps::core {

namespace {

std::string_view failure_kind_name(sim::FailureKind kind) {
  switch (kind) {
    case sim::FailureKind::kNodeFailure:
      return "node_failure";
    case sim::FailureKind::kStragglerOnset:
      return "straggler_onset";
    case sim::FailureKind::kStragglerRecovery:
      return "straggler_recovery";
  }
  return "unknown";
}

/// One "caps" event per job: the caps the RM step just programmed, at
/// exact numeric fidelity (the replay oracle's input).
void emit_caps_events(const obs::Observability& obs, std::uint64_t tick,
                      std::span<sim::JobSimulation* const> jobs) {
  if (!obs.tracing()) {
    return;
  }
  for (const auto* job : jobs) {
    obs::TraceEvent event;
    event.tick = tick;
    event.category = std::string(obs::cat::kCoord);
    event.name = "caps";
    event.args.reserve(job->host_count() + 1);
    event.args.push_back({"job", job->name()});
    for (std::size_t h = 0; h < job->host_count(); ++h) {
      event.args.push_back({obs::cap_key(h), job->host_cap(h)});
    }
    if (job->has_gpu_domain()) {
      // GPU-domain caps ride the same event under g-keys; CPU-only jobs
      // emit none, so pre-hetero golden traces are byte-identical.
      for (std::size_t h = 0; h < job->host_count(); ++h) {
        event.args.push_back({obs::gpu_cap_key(h), job->host_gpu_cap(h)});
      }
    }
    obs.trace->emit(std::move(event));
  }
}

}  // namespace

double CoordinationResult::gflops_per_watt() const {
  if (energy_joules <= 0.0) {
    return 0.0;
  }
  return total_gflop / energy_joules;
}

double FailureTelemetry::mean_epochs_to_reclaim() const {
  double total = 0.0;
  std::size_t count = 0;
  for (const ReclaimRecord& record : reclaims) {
    if (record.reclaimed) {
      total += static_cast<double>(record.reclaim_epoch -
                                   record.event_epoch);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

CoordinationLoop::CoordinationLoop(double system_budget_watts,
                                   const CoordinationOptions& options)
    : budget_(system_budget_watts), options_(options) {
  PS_REQUIRE(system_budget_watts > 0.0, "system budget must be positive");
  PS_REQUIRE(options.epoch_iterations > 0,
             "epochs need at least one iteration");
  PS_REQUIRE(options.convergence_watts > 0.0,
             "convergence threshold must be positive");
}

PolicyContext CoordinationLoop::build_context(
    std::span<sim::JobSimulation* const> jobs) {
  PolicyContext context;
  context.system_budget_watts = budget_;
  context.node_tdp_watts = jobs.front()->host(0).tdp();
  context.uncappable_watts =
      jobs.front()->host(0).params().dram_watts;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sim::JobSimulation& job = *jobs[j];
    runtime::JobCharacterization data;
    data.host_count = job.host_count();
    data.sla_class = job.sla_class();
    data.min_settable_cap_watts = job.host(0).min_cap();
    // Live "needed" estimate: the balancer search under an unconstrained
    // budget re-derives each host's minimum performance-preserving cap
    // for the job's *current* phase.
    double tdp_budget = 0.0;
    for (std::size_t h = 0; h < job.host_count(); ++h) {
      tdp_budget += job.host(h).tdp();
    }
    data.balancer.host_needed_power_watts =
        runtime::balance_power(job, tdp_budget, options_.balancer);
    // A dead host needs (and demands) nothing above the settable floor:
    // the policy squeezes it there and the difference returns to the
    // pool for the survivors.
    for (std::size_t h = 0; h < job.host_count(); ++h) {
      if (job.host_failed(h)) {
        data.balancer.host_needed_power_watts[h] = job.host(h).min_cap();
        live_[j].demand_watts[h] = job.host(h).min_cap();
      }
    }
    // Live "monitor" estimate: the running demand maximum observed so
    // far (a host capped below its demand still reveals demand up to its
    // cap; the estimate grows as caps rise).
    data.monitor.host_average_power_watts = live_[j].demand_watts;
    data.monitor.max_host_power_watts =
        *std::max_element(live_[j].demand_watts.begin(),
                          live_[j].demand_watts.end());
    data.monitor.min_host_power_watts =
        *std::min_element(live_[j].demand_watts.begin(),
                          live_[j].demand_watts.end());
    if (job.has_gpu_domain()) {
      // GPU-domain telemetry: live demand from the GPU ratchet, needed
      // power re-derived per domain against one whole-node time target.
      // Both searches must honor the *iteration* critical path (the max
      // of the concurrent CPU and GPU phases): a CPU phase far off the
      // critical path needs only the cap that keeps it there, and the
      // freed watts are exactly what shifts to the bottleneck domain.
      const double target =
          runtime::uncapped_iteration_seconds(job) *
          (1.0 + options_.balancer.tolerated_slowdown);
      data.host_gpu_needed_watts.assign(job.host_count(), 0.0);
      data.host_gpu_observed_watts = live_[j].gpu_demand_watts;
      for (std::size_t h = 0; h < job.host_count(); ++h) {
        if (!job.host_failed(h)) {
          data.balancer.host_needed_power_watts[h] =
              runtime::min_cap_for_time(job, h, target, options_.balancer);
        }
        if (!job.host_has_gpu_phase(h)) {
          continue;
        }
        if (data.gpu_min_cap_watts == 0.0) {
          data.gpu_min_cap_watts = job.host_gpu_min_cap(h);
          data.gpu_tdp_watts = job.host_gpu_tdp(h);
        }
        if (job.host_failed(h)) {
          data.host_gpu_needed_watts[h] = job.host_gpu_min_cap(h);
          live_[j].gpu_demand_watts[h] = job.host_gpu_min_cap(h);
          data.host_gpu_observed_watts[h] = job.host_gpu_min_cap(h);
        } else {
          data.host_gpu_needed_watts[h] = runtime::min_gpu_cap_for_time(
              job, h, target, options_.balancer);
        }
      }
    }
    data.balancer.min_host_needed_watts =
        *std::min_element(data.balancer.host_needed_power_watts.begin(),
                          data.balancer.host_needed_power_watts.end());
    data.balancer.max_host_needed_watts =
        *std::max_element(data.balancer.host_needed_power_watts.begin(),
                          data.balancer.host_needed_power_watts.end());
    context.jobs.push_back(std::move(data));
  }
  return context;
}

CoordinationResult CoordinationLoop::run(
    std::span<sim::JobSimulation* const> jobs,
    std::size_t total_iterations) {
  return run_with_failures(jobs, total_iterations, {}, nullptr);
}

CoordinationResult CoordinationLoop::run_with_failures(
    std::span<sim::JobSimulation* const> jobs,
    std::size_t total_iterations,
    std::span<const sim::FailureEvent> events,
    FailureTelemetry* telemetry) {
  return run_dynamic(jobs, total_iterations, events, {}, telemetry, nullptr);
}

CoordinationResult CoordinationLoop::run_dynamic(
    std::span<sim::JobSimulation* const> jobs,
    std::size_t total_iterations,
    std::span<const sim::FailureEvent> events,
    std::span<const BudgetRevision> revisions,
    FailureTelemetry* telemetry,
    BudgetTelemetry* budget_telemetry) {
  PS_REQUIRE(!jobs.empty(), "coordination needs at least one job");
  PS_REQUIRE(total_iterations > 0, "need at least one iteration");
  for (const auto* job : jobs) {
    PS_REQUIRE(job != nullptr, "job must not be null");
  }
  for (const sim::FailureEvent& event : events) {
    PS_REQUIRE(event.job < jobs.size(), "failure event job out of range");
    PS_REQUIRE(event.host < jobs[event.job]->host_count(),
               "failure event host out of range");
  }
  for (std::size_t r = 1; r < revisions.size(); ++r) {
    PS_REQUIRE(revisions[r - 1].at_epoch <= revisions[r].at_epoch,
               "budget revisions must be sorted by at_epoch");
  }

  // Initial state: uniform distribution of the budget (StaticCaps-like),
  // demand estimates seeded at the settable floor. Heterogeneous hosts
  // split their share CPU:GPU by TDP ratio until the first RM step; the
  // invariant tolerances count every programmable limit (one per host
  // plus one per GPU-phase host), since each limit quantizes separately.
  std::size_t total_hosts = 0;
  std::size_t total_limits = 0;
  for (const auto* job : jobs) {
    total_hosts += job->host_count();
    total_limits += job->host_count();
    for (std::size_t h = 0; h < job->host_count(); ++h) {
      if (job->host_has_gpu_phase(h)) {
        ++total_limits;
      }
    }
  }
  const double share = budget_ / static_cast<double>(total_hosts);
  live_.assign(jobs.size(), {});
  std::vector<std::vector<double>> previous_caps(jobs.size());
  std::vector<std::vector<double>> previous_gpu_caps(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    live_[j].demand_watts.assign(jobs[j]->host_count(),
                                 jobs[j]->host(0).min_cap());
    previous_caps[j].resize(jobs[j]->host_count());
    previous_gpu_caps[j].assign(jobs[j]->host_count(), 0.0);
    if (jobs[j]->has_gpu_domain()) {
      live_[j].gpu_demand_watts.assign(jobs[j]->host_count(), 0.0);
    }
    for (std::size_t h = 0; h < jobs[j]->host_count(); ++h) {
      const bool gpu = jobs[j]->host_has_gpu_phase(h);
      const LaunchCaps launch =
          split_launch_share(share, jobs[j]->host(h).tdp(),
                             gpu ? jobs[j]->host_gpu_tdp(h) : 0.0);
      jobs[j]->set_host_cap(h, launch.cpu_watts);
      if (gpu) {
        jobs[j]->set_host_gpu_cap(h, launch.gpu_watts);
        live_[j].gpu_demand_watts[h] = jobs[j]->host_gpu_min_cap(h);
        previous_gpu_caps[j][h] = jobs[j]->host_gpu_cap(h);
      }
      previous_caps[j][h] = jobs[j]->host_cap(h);
    }
  }

  const auto policy = make_policy(options_.policy);
  rm::SystemPowerManager manager(budget_);
  const obs::Observability& obs = options_.obs;
  manager.set_observer(obs);

  CoordinationResult result;
  std::vector<ReclaimRecord> pending_reclaims;
  std::size_t next_event = 0;
  std::size_t next_revision = 0;
  std::size_t done = 0;
  std::size_t epoch_index = 0;
  while (done < total_iterations) {
    const std::size_t this_epoch =
        std::min(options_.epoch_iterations, total_iterations - done);

    // Adopt this epoch's budget revisions before its iterations run. The
    // caps programmed at the last RM step keep running until this
    // epoch's own RM step — the bounded excursion window.
    while (next_revision < revisions.size() &&
           revisions[next_revision].at_epoch <= epoch_index) {
      const BudgetRevision& revision = revisions[next_revision];
      invariants::check_epoch_monotone(manager.budget_epoch(), revision.epoch,
                                       "coordination.revision");
      const bool applied =
          manager.set_budget(revision.budget_watts, revision.epoch);
      if (applied) {
        budget_ = revision.budget_watts;
        if (budget_telemetry != nullptr) {
          ++budget_telemetry->revisions_applied;
        }
      } else if (budget_telemetry != nullptr) {
        ++budget_telemetry->revisions_stale;
      }
      obs.emit(epoch_index, obs::cat::kCoord, "revision",
               {{"revision_epoch", revision.epoch},
                {"budget_watts", revision.budget_watts},
                {"applied", applied}});
      ++next_revision;
    }

    // Apply this epoch's scheduled failures before its iterations run.
    while (next_event < events.size() &&
           events[next_event].epoch <= epoch_index) {
      const sim::FailureEvent& event = events[next_event];
      sim::JobSimulation& job = *jobs[event.job];
      switch (event.kind) {
        case sim::FailureKind::kNodeFailure: {
          ReclaimRecord reclaim;
          reclaim.event_epoch = epoch_index;
          reclaim.job = event.job;
          reclaim.host = event.host;
          reclaim.watts_reclaimed =
              job.host_cap(event.host) - job.host(event.host).min_cap();
          if (job.host_has_gpu_phase(event.host)) {
            // Both domains of a dead host return to the pool.
            reclaim.watts_reclaimed += job.host_gpu_cap(event.host) -
                                       job.host_gpu_min_cap(event.host);
          }
          pending_reclaims.push_back(reclaim);
          job.set_host_failed(event.host, true);
          // The demand ratchet must fall with the host: a dead host's
          // running-max history would otherwise keep attracting watts.
          live_[event.job].demand_watts[event.host] =
              job.host(event.host).min_cap();
          if (job.host_has_gpu_phase(event.host)) {
            live_[event.job].gpu_demand_watts[event.host] =
                job.host_gpu_min_cap(event.host);
          }
          break;
        }
        case sim::FailureKind::kStragglerOnset:
          job.set_host_slowdown(event.host, event.severity);
          break;
        case sim::FailureKind::kStragglerRecovery:
          job.set_host_slowdown(event.host, 1.0);
          break;
      }
      if (telemetry != nullptr) {
        ++telemetry->events_applied;
      }
      obs.emit(epoch_index, obs::cat::kCoord, "failure",
               {{"kind", std::string(failure_kind_name(event.kind))},
                {"job", static_cast<std::uint64_t>(event.job)},
                {"host", static_cast<std::uint64_t>(event.host)}});
      ++next_event;
    }

    EpochRecord record;
    record.epoch = epoch_index;
    double epoch_max_elapsed = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      double job_elapsed = 0.0;
      for (std::size_t i = 0; i < this_epoch; ++i) {
        const sim::IterationResult iteration = jobs[j]->run_iteration();
        job_elapsed += iteration.iteration_seconds;
        record.energy_joules += iteration.total_energy_joules;
        result.total_gflop += iteration.total_gflop;
        for (std::size_t h = 0; h < jobs[j]->host_count(); ++h) {
          live_[j].demand_watts[h] =
              std::max(live_[j].demand_watts[h],
                       iteration.hosts[h].average_power_watts);
          if (jobs[j]->host_has_gpu_phase(h)) {
            live_[j].gpu_demand_watts[h] =
                std::max(live_[j].gpu_demand_watts[h],
                         iteration.hosts[h].gpu_average_power_watts);
          }
        }
      }
      epoch_max_elapsed = std::max(epoch_max_elapsed, job_elapsed);
    }
    record.elapsed_seconds = epoch_max_elapsed;
    record.system_power_watts =
        epoch_max_elapsed > 0.0 ? record.energy_joules / epoch_max_elapsed
                                : 0.0;
    done += this_epoch;
    record.budget_watts = budget_;
    record.budget_epoch = manager.budget_epoch();

    // Account the control period the epoch's caps just ran for: after a
    // budget drop this is the (single) excursion interval, closed below
    // once the RM step has reprogrammed under the revised budget.
    const double tolerance = 0.5 * static_cast<double>(total_limits);
    const double programmed =
        rm::SystemPowerManager::total_allocated_watts(jobs);
    manager.observe_programmed(programmed, total_limits,
                               record.elapsed_seconds);
    if (programmed > budget_ + tolerance && budget_telemetry != nullptr) {
      budget_telemetry->excursion_epochs.push_back(epoch_index);
    }

    // RM step: re-allocate from the live telemetry; an over-budget
    // output holds the caps just accounted, or is clamped when a
    // revision left those over budget too.
    const RmStepResult step = rm_step(*policy, build_context(jobs),
                                      programmed, policy->is_system_aware());
    if (step.over_budget() && telemetry != nullptr) {
      telemetry->budget_violation_epochs.push_back(epoch_index);
    }
    if (step.outcome != RmOutcome::kHeld) {
      manager.apply(jobs, step.caps, /*enforce_budget=*/false);
    }
    if (step.outcome == RmOutcome::kClamped) {
      manager.record_emergency_clamp();
      record.emergency_clamped = true;
      if (budget_telemetry != nullptr) {
        ++budget_telemetry->emergency_clamps;
      }
    }
    // Close the excursion (if any) at the reprogram instant.
    manager.observe_programmed(
        rm::SystemPowerManager::total_allocated_watts(jobs), total_limits,
        0.0);

    // A failure is reclaimed once the dead host sits at the floor: every
    // watt above the settable minimum is back in the pool. Policies park
    // idle hosts within a fraction of a watt of the floor (slack terms
    // keep caps off exact bounds), so reclaim within half a watt.
    for (ReclaimRecord& reclaim : pending_reclaims) {
      if (reclaim.reclaimed) {
        continue;
      }
      const sim::JobSimulation& job = *jobs[reclaim.job];
      double cap = job.host_cap(reclaim.host);
      double floor_cap = job.host(reclaim.host).min_cap();
      if (job.host_has_gpu_phase(reclaim.host)) {
        // A heterogeneous host is reclaimed only once BOTH its domains
        // sit at their floors.
        cap += job.host_gpu_cap(reclaim.host);
        floor_cap += job.host_gpu_min_cap(reclaim.host);
      }
      if (cap <= floor_cap + 0.5) {
        reclaim.reclaimed = true;
        reclaim.reclaim_epoch = epoch_index;
        // Conservation: the watts the dead host gave up plus what it
        // still holds must equal its pre-failure cap.
        invariants::check_watts_conserved(reclaim.watts_reclaimed + floor_cap,
                                          reclaim.watts_reclaimed, cap, 0.5,
                                          "coordination.reclaim");
        obs.emit(epoch_index, obs::cat::kCoord, "reclaim",
                 {{"job", static_cast<std::uint64_t>(reclaim.job)},
                  {"host", static_cast<std::uint64_t>(reclaim.host)},
                  {"watts_reclaimed", reclaim.watts_reclaimed}});
      }
    }

    record.allocated_watts =
        rm::SystemPowerManager::total_allocated_watts(jobs);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t h = 0; h < jobs[j]->host_count(); ++h) {
        const double cap = jobs[j]->host_cap(h);
        record.max_cap_change_watts =
            std::max(record.max_cap_change_watts,
                     std::abs(cap - previous_caps[j][h]));
        previous_caps[j][h] = cap;
        if (jobs[j]->host_has_gpu_phase(h)) {
          // Convergence tracks GPU-domain moves too: a loop still
          // shifting watts CPU<->GPU has not settled.
          const double gpu_cap = jobs[j]->host_gpu_cap(h);
          record.max_cap_change_watts =
              std::max(record.max_cap_change_watts,
                       std::abs(gpu_cap - previous_gpu_caps[j][h]));
          previous_gpu_caps[j][h] = gpu_cap;
        }
      }
    }
    if (!result.converged && epoch_index > 0 &&
        record.max_cap_change_watts < options_.convergence_watts) {
      result.converged = true;
      result.convergence_epoch = epoch_index;
    } else if (record.max_cap_change_watts >= options_.convergence_watts) {
      result.converged = false;  // a phase change can de-converge the loop
    }

    emit_caps_events(obs, epoch_index, jobs);
    obs.emit(epoch_index, obs::cat::kCoord, "epoch",
             {{"epoch", static_cast<std::uint64_t>(record.epoch)},
              {"budget_watts", record.budget_watts},
              {"budget_epoch", record.budget_epoch},
              {"allocated_watts", record.allocated_watts},
              {"emergency", record.emergency_clamped}});

    result.elapsed_seconds += record.elapsed_seconds;
    result.energy_joules += record.energy_joules;
    result.epochs.push_back(record);
    ++epoch_index;
  }
  if (telemetry != nullptr) {
    telemetry->reclaims = std::move(pending_reclaims);
  }
  if (budget_telemetry != nullptr) {
    budget_telemetry->excursions = manager.excursions();
    budget_telemetry->final_budget_watts = manager.budget_watts();
    budget_telemetry->final_budget_epoch = manager.budget_epoch();
  }
  return result;
}

}  // namespace ps::core
