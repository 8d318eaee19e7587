// facility_week: the planner's job. FacilityManager::run over seeded
// one-week Poisson traces on 900 homogeneous nodes: MixedAdaptive with
// EASY backfill, measured-draw admission at 1.15x oversubscription, and a
// 72%-of-TDP budget that a BudgetGovernor moves along a seeded facility
// brownout signal. It uses the same core policy and sim layers as
// sweep_grid in a different way — hundreds of small re-allocations as
// jobs come and go — and is the only workload that runs rm scheduling and
// admission, SLA degradation and the governor.
//
// A run cycles through the eight weeks of a seeded two-month plan, one
// week per op. How much work a week holds depends on its trace (job count,
// sizes, brownouts); spreading each run over eight traces keeps that
// per-seed variation from dominating the run-to-run spread.
//
// A set-up takes a few milliseconds, so set-ups timed only at the start
// of a run read whatever state the shared host was in for those few
// milliseconds. One more set-up is timed after every week, and setup_s is
// the median over all of them.
#include <cstdio>
#include <optional>

#include "core/budget_governor.hpp"
#include "facility/facility_manager.hpp"
#include "sim/facility_trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace facility = ps::facility;

constexpr std::size_t kSetupRepeats = 5;  // Before the first week.
constexpr std::size_t kWeeks = 8;
constexpr double kStepHours = 0.1;
constexpr double kBudgetShareOfTdp = 0.72;

/// One week's inputs: its job trace and the options carrying its
/// brownout budget signal.
struct Week {
  std::vector<facility::FacilityJobSpec> trace;
  facility::FacilityOptions options;
};

struct Plan {
  std::unique_ptr<ps::sim::Cluster> cluster;
  std::vector<Week> weeks;
};

Week make_week(const ps::sim::Cluster& cluster, ps::util::Rng rng,
               bool scale_down, Tracer* tracer) {
  const std::size_t nodes = cluster.size();
  const double horizon_hours = scale_down ? 24.0 : 24.0 * 7.0;
  Week week;
  facility::JobTraceOptions traffic;
  traffic.horizon_hours = horizon_hours;
  traffic.arrivals_per_hour = 1.5;
  traffic.min_nodes = nodes / 40;
  traffic.max_nodes = nodes / 4;
  traffic.min_duration_hours = 0.5;
  traffic.max_duration_hours = 12.0;
  traffic.latency_critical_fraction = 0.2;
  traffic.best_effort_fraction = 0.3;
  traffic.diurnal_amplitude = 0.5;
  {
    const Scope span(tracer, "facility.generate_job_trace");
    ps::util::Rng trace_rng = rng.fork(1);
    week.trace = facility::generate_job_trace(trace_rng, traffic);
  }

  facility::FacilityOptions& options = week.options;
  options.step_hours = kStepHours;
  options.horizon_hours = horizon_hours;
  options.policy = ps::core::PolicyKind::kMixedAdaptive;
  options.backfill = true;
  options.system_budget_watts =
      kBudgetShareOfTdp * cluster.node(0).tdp() * static_cast<double>(nodes);
  options.admission.basis = ps::rm::AdmissionBasis::kMeasuredDraw;
  options.admission.oversubscription_ratio = 1.15;
  {
    // The brownout signal: the facility trace's headroom, scaled so its
    // mean is the configured budget, one sample per step.
    const Scope span(tracer, "core.budget_signal_from_trace");
    ps::util::Rng power_rng = rng.fork(2);
    const ps::sim::FacilityTrace power =
        ps::sim::generate_facility_trace({}, power_rng);
    const double mean_headroom_watts =
        (power.params.peak_rating_mw - power.mean_mw()) * 1e6;
    const double floor_watts =
        cluster.node(0).min_cap() * static_cast<double>(nodes);
    options.governor.floor_watts = floor_watts;
    options.budget_signal_watts = ps::core::budget_signal_from_trace(
        power, options.system_budget_watts / mean_headroom_watts,
        static_cast<std::size_t>(horizon_hours / kStepHours), floor_watts);
  }
  return week;
}

Plan set_up(std::uint64_t seed, bool scale_down, Tracer* tracer) {
  const Scope setup(tracer, "facility_week.setup");
  Plan plan;
  {
    const Scope span(tracer, "sim.cluster");
    plan.cluster = std::make_unique<ps::sim::Cluster>(scale_down ? 64 : 900);
  }
  ps::util::Rng rng(seed);
  for (std::size_t w = 0; w < kWeeks; ++w) {
    plan.weeks.push_back(make_week(*plan.cluster, rng.fork(w), scale_down,
                                   tracer));
  }
  return plan;
}

/// Digest of what a planner reads off a week: completed jobs, every
/// job's start and finish, total energy and SLA violations.
std::string week_digest(const facility::FacilityResult& result) {
  std::string bytes;
  append_bits(bytes, static_cast<std::uint64_t>(result.completed_jobs));
  for (const facility::FacilityJobRecord& job : result.jobs) {
    append_bits(bytes, job.start_hours);
    append_bits(bytes, job.finish_hours);
  }
  append_bits(bytes, result.total_energy_joules);
  append_bits(bytes, static_cast<std::uint64_t>(result.sla_violations()));
  return sha256_hex(bytes);
}

/// Facts every correct week satisfies, whatever the seed.
std::optional<std::string> week_problem(
    const facility::FacilityResult& result,
    std::span<const facility::FacilityJobSpec> trace) {
  if (result.jobs.size() != trace.size() || result.completed_jobs == 0) {
    return "no jobs completed";
  }
  std::size_t finished = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const facility::FacilityJobRecord& job = result.jobs[i];
    if (job.started() && job.start_hours + 1e-9 < trace[i].arrival_hours) {
      return job.name + " started before it arrived";
    }
    if (job.finished()) {
      ++finished;
      if (!job.started() || job.finish_hours < job.start_hours) {
        return job.name + " finished before it started";
      }
    }
  }
  if (finished != result.completed_jobs) {
    return "completed-job count disagrees with the job records";
  }
  return std::nullopt;
}

}  // namespace

Outcome run_facility_week(const RunOptions& options, Tracer* tracer,
                          ps::obs::MetricsRegistry* registry) {
  Outcome outcome;
  Measured measured;
  const auto timed_set_up = [&] {
    const auto start = Clock::now();
    Plan plan = set_up(options.seed, options.scale_down, tracer);
    measured.setup_s.push_back(seconds_since(start));
    return plan;
  };
  Plan plan;
  for (std::size_t repeat = 0; repeat < kSetupRepeats; ++repeat) {
    plan = Plan{};
    plan = timed_set_up();
  }
  for (Week& week : plan.weeks) {
    week.options.obs.metrics = registry;
  }
  // The newest result of each week is kept for the per-layer counts.
  std::vector<std::optional<facility::FacilityResult>> results(kWeeks);
  std::uint64_t admission_rejections = 0;  // Over every simulated week.
  const auto simulate = [&](std::size_t w) {
    facility::FacilityManager manager(*plan.cluster, plan.weeks[w].options);
    results[w].emplace(manager.run(plan.weeks[w].trace));
    admission_rejections += results[w]->admission_rejections;
  };
  const auto digest_of = [&](std::size_t w) {
    if (const auto problem = week_problem(*results[w], plan.weeks[w].trace)) {
      outcome.problems.push_back(*problem);
      return std::string("invalid");
    }
    return week_digest(*results[w]);
  };

  // Per op: which week ran and its digest ("invalid" when the week broke
  // an invariant).
  std::vector<std::size_t> op_week;
  std::vector<std::string> op_digest;
  // The set-ups between weeks are taken out of the week figures.
  double between_wall_s = 0.0;
  double between_cpu_s = 0.0;
  const double cpu_start = process_cpu_seconds();
  const auto wall_start = Clock::now();
  do {
    const std::size_t w = op_week.size() % kWeeks;
    const auto start = Clock::now();
    {
      const Scope span(tracer, "facility_week.week");
      simulate(w);
    }
    measured.latency_ms.push_back(seconds_since(start) * 1e3);
    op_week.push_back(w);
    op_digest.push_back(digest_of(w));

    const auto between_start = Clock::now();
    const double between_cpu = process_cpu_seconds();
    (void)timed_set_up();
    between_cpu_s += process_cpu_seconds() - between_cpu;
    between_wall_s += seconds_since(between_start);
  } while (seconds_since(wall_start) - between_wall_s < options.seconds);
  measured.wall_s = seconds_since(wall_start) - between_wall_s;
  measured.cpu_s = process_cpu_seconds() - cpu_start - between_cpu_s;
  measured.ops = op_week.size();
  measured.work_units =
      static_cast<double>(measured.ops) * plan.weeks[0].options.horizon_hours;

  // Each week's reference is its first run (a week is a pure function of
  // its inputs); weeks a short run did not reach are simulated now, off
  // the clock. The pin covers all eight references.
  std::vector<std::string> reference(kWeeks);
  for (std::size_t op = op_week.size(); op-- > 0;) {
    reference[op_week[op]] = op_digest[op];
  }
  std::string all_references;
  for (std::size_t w = 0; w < kWeeks; ++w) {
    if (reference[w].empty()) {
      simulate(w);
      reference[w] = digest_of(w);
    }
    all_references += reference[w];
  }
  const std::string digest = sha256_hex(all_references);
  std::fprintf(stderr, "facility_week: seed %llu digest %s (%s)\n",
               static_cast<unsigned long long>(options.seed), digest.c_str(),
               options.pin.empty() ? "weeks checked against their first run"
                                   : "checked against the pin");
  const bool pin_ok = options.pin.empty() || options.pin == digest;
  outcome.attempted = measured.ops;
  for (std::size_t op = 0; op < op_week.size(); ++op) {
    if (op_digest[op] != reference[op_week[op]] ||
        op_digest[op] == "invalid" || !pin_ok) {
      ++outcome.failed;
    }
  }
  outcome.record(measured);
  if (tracer == nullptr) {
    return outcome;
  }

  // Counts over the whole plan (every week has a result by now).
  double completed = 0.0;
  double revisions = 0.0;
  double clamps = 0.0;
  double rejections = 0.0;
  double shed_watts = 0.0;
  for (const auto& result : results) {
    completed += static_cast<double>(result->completed_jobs);
    revisions += static_cast<double>(result->budget_revisions);
    clamps += static_cast<double>(result->emergency_clamps);
    rejections += static_cast<double>(result->admission_rejections);
    shed_watts += result->shed_watts_total;
  }
  for (const auto& [name, value] : registry->snapshot().counters) {
    if (name == "facility.admission_rejections" &&
        value != admission_rejections) {
      outcome.fail("obs admission counter disagrees with FacilityResult");
    }
  }
  const double steps = plan.weeks[0].options.horizon_hours / kStepHours;
  outcome.layers = {
      {"facility_week.facility.trace_gen_ms",
       median(tracer->durations_ms("facility.generate_job_trace")), "ms"},
      {"facility_week.facility.ms_per_step",
       median(tracer->durations_ms("facility_week.week")) / steps, "ms"},
      {"facility_week.facility.completed_jobs", completed, "count"},
      {"facility_week.facility.budget_revisions", revisions, "count"},
      {"facility_week.facility.emergency_clamps", clamps, "count"},
      {"facility_week.rm.admission_rejections", rejections, "count"},
      {"facility_week.facility.shed_watts", shed_watts, "W"},
  };
  return outcome;
}

}  // namespace perfbench
