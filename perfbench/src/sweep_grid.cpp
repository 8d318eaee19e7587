// sweep_grid: the researcher's job. The full Fig. 8 grid (6 mixes x 3
// budget levels x 4 policies = 72 cells) at paper scale, characterized
// through ExperimentDriver::prepare and run through analysis::run_grid,
// ending in the savings CSV the fig08 harness writes. Most of its time
// is sim/hw iteration evaluation; policy allocation is one call per cell,
// so a policy speed-up should not move this workload.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/export.hpp"
#include "analysis/sweep.hpp"
#include "core/mixes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace analysis = ps::analysis;
namespace core = ps::core;

constexpr std::size_t kSetupRepeats = 25;

/// Forwards to a stock policy and records a span around each allocation.
/// The cell's noise seed comes from the label passed to run_with, not
/// from this object, so results stay identical to the stock policy's.
class TimedPolicy final : public core::Policy {
 public:
  TimedPolicy(const core::Policy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] bool is_system_aware() const noexcept override {
    return inner_.is_system_aware();
  }
  [[nodiscard]] bool is_application_aware() const noexcept override {
    return inner_.is_application_aware();
  }
  [[nodiscard]] ps::rm::PowerAllocation allocate(
      const core::PolicyContext& context) const override {
    const Scope span(&tracer_, "core.allocate");
    return inner_.allocate(context);
  }

 private:
  const core::Policy& inner_;
  Tracer& tracer_;
};

struct Prepared {
  std::unique_ptr<analysis::ExperimentDriver> driver;
  std::vector<std::optional<analysis::MixExperiment>> experiments;
  std::vector<const analysis::MixExperiment*> pointers;
};

const std::vector<core::PolicyKind>& grid_policies() {
  static const std::vector<core::PolicyKind> policies = {
      core::PolicyKind::kStaticCaps, core::PolicyKind::kMinimizeWaste,
      core::PolicyKind::kJobAdaptive, core::PolicyKind::kMixedAdaptive};
  return policies;
}

Prepared prepare(const analysis::ExperimentOptions& experiment,
                 const analysis::SweepExecutor& executor, Tracer* tracer) {
  const Scope setup(tracer, "sweep_grid.setup");
  const std::uint64_t parent = setup.id();
  Prepared prepared;
  {
    const Scope span(tracer, "analysis.driver");
    prepared.driver =
        std::make_unique<analysis::ExperimentDriver>(experiment);
  }
  const std::vector<core::MixKind> kinds = core::all_mix_kinds();
  prepared.experiments.resize(kinds.size());
  executor.for_each(kinds.size(), [&](std::size_t m) {
    const Scope span(tracer, "analysis.prepare", parent);
    prepared.experiments[m].emplace(prepared.driver->prepare(
        core::make_mix(kinds[m], experiment.nodes_per_job)));
  });
  for (const auto& mix : prepared.experiments) {
    prepared.pointers.push_back(&*mix);
  }
  return prepared;
}

/// The fig08 savings CSV of one grid, rows in the harness's order.
std::string savings_csv(const analysis::SweepGridResult& grid,
                        const Prepared& prepared, Tracer* tracer) {
  const core::PolicyKind policies[] = {core::PolicyKind::kMinimizeWaste,
                                       core::PolicyKind::kJobAdaptive,
                                       core::PolicyKind::kMixedAdaptive};
  std::vector<analysis::SavingsRow> rows;
  for (std::size_t m = 0; m < prepared.pointers.size(); ++m) {
    for (core::BudgetLevel level : grid.levels()) {
      const analysis::MixRunResult& baseline =
          grid.at(m, level, core::PolicyKind::kStaticCaps);
      for (core::PolicyKind policy : policies) {
        const Scope span(tracer, "analysis.savings");
        rows.push_back(analysis::SavingsRow{
            prepared.pointers[m]->mix_name(), policy, level,
            analysis::compute_savings(
                grid.at(m, level, policy), baseline,
                analysis::SavingsStatistics::kIntervalsOnly)});
      }
    }
  }
  std::ostringstream csv;
  analysis::write_savings_csv(csv, rows);
  return csv.str();
}

/// One grid the way run_grid runs it, with a span per cell and the
/// allocation timed through TimedPolicy.
analysis::SweepGridResult traced_grid(
    const analysis::SweepExecutor& executor, const Prepared& prepared,
    const std::vector<core::BudgetLevel>& levels, Tracer& tracer) {
  const std::vector<core::PolicyKind>& policies = grid_policies();
  analysis::SweepGridResult grid(prepared.pointers.size(), levels, policies);
  const std::size_t per_mix = levels.size() * policies.size();
  const Scope span(&tracer, "analysis.run_grid");
  const std::uint64_t parent = span.id();
  executor.for_each(prepared.pointers.size() * per_mix, [&](std::size_t i) {
    const Scope cell(&tracer, "analysis.cell", parent);
    const std::size_t mix = i / per_mix;
    const std::size_t level_index = (i % per_mix) / policies.size();
    const std::size_t policy_index = i % policies.size();
    const std::unique_ptr<core::Policy> stock =
        core::make_policy(policies[policy_index]);
    const TimedPolicy timed(*stock, tracer);
    grid.slot(mix, level_index, policy_index) =
        prepared.pointers[mix]->run_with(levels[level_index], timed,
                                         policies[policy_index]);
  });
  return grid;
}

/// The same grid computed serially, cell by cell — the reference for
/// seeds without a pinned digest (any worker count must match it).
analysis::SweepGridResult serial_grid(
    const Prepared& prepared, const std::vector<core::BudgetLevel>& levels) {
  const std::vector<core::PolicyKind>& policies = grid_policies();
  analysis::SweepGridResult grid(prepared.pointers.size(), levels, policies);
  for (std::size_t m = 0; m < prepared.pointers.size(); ++m) {
    for (std::size_t l = 0; l < levels.size(); ++l) {
      for (std::size_t p = 0; p < policies.size(); ++p) {
        grid.slot(m, l, p) = prepared.pointers[m]->run(levels[l], policies[p]);
      }
    }
  }
  return grid;
}

std::size_t host_iterations(const analysis::SweepGridResult& grid,
                            const Prepared& prepared) {
  std::size_t total = 0;
  for (std::size_t m = 0; m < prepared.pointers.size(); ++m) {
    for (core::BudgetLevel level : grid.levels()) {
      for (core::PolicyKind policy : grid.policies()) {
        const analysis::MixRunResult& cell = grid.at(m, level, policy);
        const auto& characterizations =
            prepared.pointers[m]->characterizations();
        for (std::size_t j = 0; j < cell.jobs.size(); ++j) {
          total += cell.jobs[j].iteration_seconds.size() *
                   characterizations[j].host_count;
        }
      }
    }
  }
  return total;
}

}  // namespace

Outcome run_sweep_grid(const RunOptions& options, Tracer* tracer,
                       ps::obs::MetricsRegistry* registry) {
  analysis::ExperimentOptions experiment;
  experiment.seed = options.seed;
  experiment.characterization_iterations = 5;
  experiment.hardware_variation = true;
  experiment.nodes_per_job = options.scale_down ? 12 : 100;
  experiment.iterations = options.scale_down ? 20 : 100;
  const std::size_t workers = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);

  Outcome outcome;
  Measured measured;
  std::optional<analysis::SweepExecutor> executor;
  Prepared prepared;
  for (std::size_t repeat = 0; repeat < kSetupRepeats; ++repeat) {
    prepared = Prepared{};
    executor.reset();
    const auto start = Clock::now();
    executor.emplace(workers, ps::obs::Observability{registry, nullptr});
    prepared = prepare(experiment, *executor, tracer);
    measured.setup_s.push_back(seconds_since(start));
  }

  const std::vector<core::BudgetLevel> levels = core::all_budget_levels();
  const std::size_t cells_per_grid =
      prepared.pointers.size() * levels.size() * grid_policies().size();
  std::vector<std::string> digests;
  std::size_t iterations_per_grid = 0;
  const double cpu_start = process_cpu_seconds();
  const auto wall_start = Clock::now();
  do {
    const auto start = Clock::now();
    std::optional<analysis::SweepGridResult> grid;
    std::string csv;
    {
      const Scope span(tracer, "sweep_grid.grid");
      grid.emplace(tracer != nullptr
                       ? traced_grid(*executor, prepared, levels, *tracer)
                       : analysis::run_grid(*executor, prepared.pointers,
                                            levels, grid_policies()));
      csv = savings_csv(*grid, prepared, tracer);
    }
    measured.latency_ms.push_back(seconds_since(start) * 1e3);
    digests.push_back(sha256_hex(csv));
    if (iterations_per_grid == 0) {
      iterations_per_grid = host_iterations(*grid, prepared);
    }
  } while (seconds_since(wall_start) < options.seconds);
  measured.wall_s = seconds_since(wall_start);
  measured.cpu_s = process_cpu_seconds() - cpu_start;
  measured.ops = digests.size() * cells_per_grid;
  measured.work_units = static_cast<double>(measured.ops);

  std::string expected = options.pin;
  if (expected.empty()) {
    expected = sha256_hex(
        savings_csv(serial_grid(prepared, levels), prepared, nullptr));
  }
  std::fprintf(stderr, "sweep_grid: seed %llu digest %s (%s)\n",
               static_cast<unsigned long long>(options.seed),
               digests.front().c_str(),
               options.pin.empty() ? "checked against a serial grid"
                                   : "checked against the pin");
  outcome.attempted = measured.ops;
  for (const std::string& digest : digests) {
    if (digest != expected) {
      outcome.failed += cells_per_grid;
    }
  }
  outcome.record(measured);
  if (tracer == nullptr) {
    return outcome;
  }

  double cell_ms = 0.0;
  double allocate_ms = 0.0;
  for (const Tracer::Span& cell : tracer->spans("analysis.cell")) {
    cell_ms += cell.ms();
    allocate_ms += tracer->child_ms(cell.id, "core.allocate");
  }
  double grid_ms = 0.0;
  for (const double ms : tracer->durations_ms("analysis.run_grid")) {
    grid_ms += ms;
  }
  const double grids = static_cast<double>(digests.size());
  const auto us = [](std::vector<double> ms) {
    for (double& value : ms) {
      value *= 1e3;
    }
    return median(std::move(ms));
  };
  outcome.layers = {
      {"sweep_grid.analysis.prepare_ms",
       median(tracer->durations_ms("analysis.prepare")), "ms"},
      {"sweep_grid.analysis.cell_ms",
       median(tracer->durations_ms("analysis.cell")), "ms"},
      {"sweep_grid.analysis.worker_busy_share",
       cell_ms / (static_cast<double>(workers) * grid_ms), "ratio"},
      {"sweep_grid.analysis.savings_us",
       us(tracer->durations_ms("analysis.savings")), "us"},
      {"sweep_grid.core.allocate_us",
       us(tracer->durations_ms("core.allocate")), "us"},
      {"sweep_grid.sim.host_iter_ns",
       (cell_ms - allocate_ms) * 1e6 /
           (grids * static_cast<double>(iterations_per_grid)),
       "ns"},
      {"sweep_grid.sim.host_iterations",
       static_cast<double>(iterations_per_grid), "count"},
  };
  return outcome;
}

}  // namespace perfbench
