// Facility planning scenario (the paper's introduction): a site procured
// 1.35 MW but its cluster averages ~0.83 MW. How aggressively can the
// power budget be shrunk — freeing procurement for more nodes — before
// quality of service collapses, and how much does policy choice move
// that frontier?
//
//   ./facility_planning [--nodes N]
#include <cstdio>
#include <string_view>

#include "analysis/experiment.hpp"
#include "sim/facility_trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace ps;

  std::size_t nodes_per_job = 12;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--nodes" && i + 1 < argc) {
      try {
        nodes_per_job = util::parse_count("--nodes", argv[++i]);
      } catch (const InvalidArgument& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    }
  }

  // Step 1: the facility's historical draw, as in Fig. 1.
  util::Rng rng(0xfac);
  const sim::FacilityTrace trace =
      sim::generate_facility_trace(sim::FacilityTraceParams{}, rng);
  std::printf("Historical facility draw: mean %.2f MW of %.2f MW procured "
              "(%.0f%% headroom)\n\n",
              trace.mean_mw(), trace.params.peak_rating_mw,
              (1.0 - trace.mean_mw() / trace.params.peak_rating_mw) * 100.0);

  // Step 2: sweep system budgets from aggressive to conservative on a
  // representative mixed workload and quantify the QoS cost per policy.
  analysis::ExperimentOptions options;
  options.nodes_per_job = nodes_per_job;
  options.iterations = 30;
  options.characterization_iterations = 4;
  analysis::ExperimentDriver driver(options);
  analysis::MixExperiment experiment = driver.prepare(
      core::make_mix(core::MixKind::kRandomLarge, nodes_per_job));

  const double max_budget = experiment.budgets().max_watts;
  std::printf("Sweeping budgets on the RandomLarge mix "
              "(%zu hosts; 100%% = conservative max of %.1f kW):\n\n",
              experiment.total_hosts(), max_budget / 1000.0);

  // Baseline: the conservative budget under StaticCaps.
  const analysis::MixRunResult reference =
      experiment.run(core::BudgetLevel::kMax, core::PolicyKind::kStaticCaps);

  util::TextTable table;
  table.add_column("Budget", util::Align::kRight, 0);
  table.add_column("Policy", util::Align::kLeft);
  table.add_column("slowdown vs max", util::Align::kRight, 2);
  table.add_column("energy vs max", util::Align::kRight, 2);
  table.add_column("nodes fundable*", util::Align::kRight, 0);

  const core::PowerBudgets budgets = experiment.budgets();
  struct Level {
    const char* label;
    core::BudgetLevel level;
    double watts;
  };
  const Level levels[] = {
      {"min", core::BudgetLevel::kMin, budgets.min_watts},
      {"ideal", core::BudgetLevel::kIdeal, budgets.ideal_watts},
      {"max", core::BudgetLevel::kMax, budgets.max_watts},
  };
  for (const Level& level : levels) {
    for (core::PolicyKind kind : {core::PolicyKind::kStaticCaps,
                                  core::PolicyKind::kMixedAdaptive}) {
      const analysis::MixRunResult run = experiment.run(level.level, kind);
      const double slowdown =
          run.mean_elapsed_seconds() / reference.mean_elapsed_seconds() -
          1.0;
      const double energy_ratio =
          run.total_energy_joules() / reference.total_energy_joules() - 1.0;
      // Power freed relative to the conservative budget buys extra nodes
      // at the per-node max characterized draw.
      const double freed = max_budget - level.watts;
      const double extra_nodes =
          freed / (max_budget / static_cast<double>(experiment.total_hosts()));
      table.begin_row();
      table.add_cell(util::format_fixed(level.watts / 1000.0, 1) + " kW");
      table.add_cell(std::string(core::to_string(kind)));
      table.add_percent(slowdown);
      table.add_percent(energy_ratio);
      table.add_cell(util::format_fixed(extra_nodes, 0));
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("* nodes fundable: extra nodes the freed procurement could "
              "power at the\n  conservative per-node budget.\n\n");
  std::printf("Reading: at the ideal budget, MixedAdaptive gives up far "
              "less performance\nthan StaticCaps for the same freed "
              "procurement — the paper's case for\ncoordinated, "
              "application-aware power management.\n");
  return 0;
}
