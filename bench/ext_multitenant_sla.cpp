// Extension experiment: multi-tenant oversubscription frontiers. One
// flash-crowd + diurnal job trace with a latency_critical / standard /
// best_effort mix runs through the facility manager under a tight
// budget, once per admission policy: the worst-case-TDP gate (the
// batch-HPC default the paper assumes) against the measured-draw gate
// at increasing oversubscription ratios. The deliverable is the
// SLA-violation vs work-completed frontier per policy — measured-draw
// admission must dominate the worst-case gate on it (verdict enforced
// by exit code) — written as a CSV that is byte-identical at any
// --jobs worker count.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "facility/facility_manager.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

struct AdmissionCase {
  std::string label;
  ps::rm::AdmissionBasis basis;
  double ratio;
};

struct CaseResult {
  ps::facility::FacilityResult facility;
  std::size_t submitted = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ps;
  util::ArgParser parser;
  parser.add_flag("--quick", "reduced scale (16 nodes, 36 h horizon)")
      .add_option("--jobs", "0",
                  "sweep worker threads (0 = all cores, 1 = serial)")
      .add_option("--out", "", "CSV output path (default: under build/)");
  auto [quick, workers] = bench::read_command_line(
      parser, argc, argv, [](const util::ArgParser& args) {
        return std::pair(args.flag("--quick"), args.option_size("--jobs"));
      });

  const std::size_t nodes = quick ? 16 : 32;
  const double horizon = quick ? 36.0 : 96.0;

  // The demand side: a diurnal arrival curve with two seeded flash
  // crowds, 25% latency_critical / 35% best_effort.
  facility::JobTraceOptions traffic;
  traffic.horizon_hours = horizon;
  traffic.arrivals_per_hour = quick ? 1.2 : 1.0;
  traffic.min_nodes = nodes / 8;
  traffic.max_nodes = nodes / 4;
  traffic.min_duration_hours = 0.5;
  traffic.max_duration_hours = 4.0;
  traffic.latency_critical_fraction = 0.25;
  traffic.best_effort_fraction = 0.35;
  traffic.diurnal_amplitude = 0.5;
  traffic.burst_count = 2;
  traffic.burst_rate_multiplier = 5.0;
  traffic.burst_duration_hours = 3.0;
  util::Rng rng(0x51a);
  const std::vector<facility::FacilityJobSpec> trace =
      facility::generate_job_trace(rng, traffic);

  const std::vector<AdmissionCase> cases = {
      {"worst_case_tdp", rm::AdmissionBasis::kWorstCaseTdp, 1.0},
      {"measured_draw", rm::AdmissionBasis::kMeasuredDraw, 1.0},
      {"measured_draw", rm::AdmissionBasis::kMeasuredDraw, 1.15},
      {"measured_draw", rm::AdmissionBasis::kMeasuredDraw, 1.3},
      {"measured_draw", rm::AdmissionBasis::kMeasuredDraw, 1.5},
  };

  std::printf(
      "Multi-tenant oversubscription frontier: %zu nodes, %.0f h "
      "horizon,\n%zu submitted jobs (25%%/40%%/35%% lc/std/be), budget "
      "55%% of TDP,\nflash crowds + diurnal demand\n\n",
      nodes, horizon, trace.size());

  // Each case is a self-contained deterministic simulation; the worker
  // pool only changes who runs it, never what it computes, so the CSV
  // below is byte-identical at any --jobs count.
  std::vector<CaseResult> results(cases.size());
  std::atomic<std::size_t> next{0};
  const auto run_case = [&](std::size_t index) {
    sim::Cluster cluster(nodes);
    facility::FacilityOptions options;
    options.step_hours = 0.1;
    options.horizon_hours = horizon + 12.0;  // drain tail of the queue
    options.characterization_iterations = 2;
    options.policy = core::PolicyKind::kMixedAdaptive;
    options.system_budget_watts =
        0.55 * cluster.node(0).tdp() * static_cast<double>(nodes);
    options.admission.basis = cases[index].basis;
    options.admission.oversubscription_ratio = cases[index].ratio;
    facility::FacilityManager manager(cluster, options);
    results[index].facility = manager.run(trace);
    results[index].submitted = trace.size();
  };
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
  }
  workers = std::max<std::size_t>(1, std::min(workers, cases.size()));
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < cases.size();
           i = next.fetch_add(1)) {
        run_case(i);
      }
    });
  }
  for (std::thread& worker : pool) {
    worker.join();
  }

  util::TextTable table;
  table.add_column("admission", util::Align::kLeft);
  table.add_column("ratio", util::Align::kRight, 2);
  table.add_column("completed", util::Align::kRight, 0);
  table.add_column("rejected", util::Align::kRight, 0);
  table.add_column("SLA viol (lc/std/be)", util::Align::kLeft);
  table.add_column("energy (MJ)", util::Align::kRight, 1);
  table.add_column("shed (kWh)", util::Align::kRight, 2);
  table.add_column("mean wait (h)", util::Align::kRight, 2);

  const auto violations = [](const facility::FacilityResult& result,
                             sim::SlaClass sla_class) {
    return result.sla_violations_by_class[sim::sla_rank(sla_class)];
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const facility::FacilityResult& result = results[i].facility;
    table.begin_row();
    table.add_cell(cases[i].label);
    table.add_number(cases[i].ratio);
    table.add_cell(std::to_string(result.completed_jobs));
    table.add_cell(std::to_string(result.admission_rejections));
    table.add_cell(
        std::to_string(violations(result, sim::SlaClass::kLatencyCritical)) +
        "/" + std::to_string(violations(result, sim::SlaClass::kStandard)) +
        "/" + std::to_string(violations(result, sim::SlaClass::kBestEffort)));
    table.add_number(result.total_energy_joules / 1e6);
    table.add_number(result.shed_watts_total / 1000.0);
    table.add_number(result.mean_wait_hours());
  }
  std::printf("%s\n", table.to_string().c_str());

  const std::string csv_path =
      ps::bench::output_path(argc, argv, "ext_multitenant_sla.csv");
  {
    std::ofstream out(csv_path);
    util::CsvWriter csv(out);
    csv.write_row({"admission", "ratio", "submitted", "completed",
                   "rejected", "violations_lc", "violations_std",
                   "violations_be", "violations_total", "energy_mj",
                   "shed_kwh", "mean_wait_hours"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const facility::FacilityResult& result = results[i].facility;
      csv.write_row(
          {cases[i].label, util::format_fixed(cases[i].ratio, 2),
           std::to_string(results[i].submitted),
           std::to_string(result.completed_jobs),
           std::to_string(result.admission_rejections),
           std::to_string(
               violations(result, sim::SlaClass::kLatencyCritical)),
           std::to_string(violations(result, sim::SlaClass::kStandard)),
           std::to_string(violations(result, sim::SlaClass::kBestEffort)),
           std::to_string(result.sla_violations()),
           util::format_fixed(result.total_energy_joules / 1e6, 1),
           util::format_fixed(result.shed_watts_total / 1000.0, 2),
           util::format_fixed(result.mean_wait_hours(), 3)});
    }
  }
  std::printf("Wrote %s\n", csv_path.c_str());

  // The frontier verdict: some measured-draw point must dominate the
  // worst-case gate — at least as much work completed, no more SLA
  // violations, and strictly better on one of the two axes. This is the
  // paper's oversubscription bet stated as an invariant: admitting
  // against observed draw (with class-ordered degradation covering the
  // tail) beats reserving worst-case TDP.
  const facility::FacilityResult& worst = results[0].facility;
  bool dominated = false;
  for (std::size_t i = 1; i < cases.size(); ++i) {
    const facility::FacilityResult& measured = results[i].facility;
    const bool no_worse =
        measured.completed_jobs >= worst.completed_jobs &&
        measured.sla_violations() <= worst.sla_violations();
    const bool strictly_better =
        measured.completed_jobs > worst.completed_jobs ||
        measured.sla_violations() < worst.sla_violations();
    if (no_worse && strictly_better) {
      std::printf(
          "VERDICT: measured-draw (ratio %.2f) dominates worst-case "
          "admission:\n  completed %zu vs %zu, SLA violations %zu vs "
          "%zu\n",
          cases[i].ratio, measured.completed_jobs, worst.completed_jobs,
          measured.sla_violations(), worst.sla_violations());
      dominated = true;
      break;
    }
  }
  if (!dominated) {
    std::printf(
        "VERDICT: FAIL — no measured-draw point dominates the "
        "worst-case gate\n");
    return 1;
  }
  return 0;
}
