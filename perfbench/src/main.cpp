// The repository benchmark's executable. Usually started by run.py,
// which builds it first:
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--pin W=SHA256 ...] [--workdir DIR] [--scale-down]
//
// --trace 0 runs workload W untraced and reports its end-to-end metrics.
// --trace 1 runs every workload twice, for a sixth of S each time —
// untraced, then with spans and the obs registry attached — and reports
// every per-layer metric plus each workload's tracing overhead; the spans
// and the registry are written to DIR when the run ends. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <string_view>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Outcome;
using perfbench::RunOptions;
using perfbench::Tracer;

using WorkloadFn = Outcome (*)(const RunOptions&, Tracer*,
                               ps::obs::MetricsRegistry*);

const std::map<std::string, WorkloadFn, std::less<>>& workloads() {
  static const std::map<std::string, WorkloadFn, std::less<>> table = {
      {"sweep_grid", &perfbench::run_sweep_grid},
      {"tree_round", &perfbench::run_tree_round},
      {"facility_week", &perfbench::run_facility_week},
  };
  return table;
}

/// The order a traced run measures the workloads in.
constexpr std::string_view kTracedOrder[] = {"sweep_grid", "tree_round",
                                             "facility_week"};

struct Args {
  std::string workload;
  bool traced = false;
  RunOptions run;
  std::map<std::string, std::string, std::less<>> pins;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep_grid|tree_round|facility_week --seed N --seconds S "
               "--trace 0|1 [--pin WORKLOAD=SHA256] [--workdir DIR] "
               "[--scale-down]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || end == nullptr || *end != '\0') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--scale-down") {
      args.run.scale_down = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = parse_count(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.run.seconds = static_cast<double>(parse_count(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace takes 0 or 1");
      }
      args.traced = value == "1";
      have_trace = true;
    } else if (flag == "--pin") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) {
        usage("--pin takes WORKLOAD=SHA256");
      }
      args.pins[value.substr(0, eq)] = value.substr(eq + 1);
    } else if (flag == "--workdir") {
      args.run.workdir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!workloads().contains(args.workload)) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  return args;
}

Outcome run_one(const Args& args, std::string_view name, double seconds,
                Tracer* tracer, ps::obs::MetricsRegistry* registry) {
  RunOptions options = args.run;
  options.seconds = seconds;
  const auto pin = args.pins.find(name);
  options.pin = pin == args.pins.end() ? "" : pin->second;
  return workloads().find(name)->second(options, tracer, registry);
}

/// Traced mode: every workload untraced then traced, so every per-layer
/// metric is present and each workload's tracing overhead is measured
/// against an untraced run of the same length in the same process. The
/// six phases share --seconds, so a traced run lasts about as long as an
/// untraced one.
Outcome run_traced(const Args& args) {
  ps::obs::MetricsRegistry registry;
  std::map<std::string_view, Tracer> tracers;
  Outcome total;
  const double share = args.run.seconds / 6.0;
  for (const std::string_view name : kTracedOrder) {
    Tracer& tracer = tracers[name];
    const Outcome plain = run_one(args, name, share, nullptr, nullptr);
    const Outcome traced = run_one(args, name, share, &tracer, &registry);
    for (const Outcome* outcome : {&plain, &traced}) {
      total.attempted += outcome->attempted;
      total.failed += outcome->failed;
      total.checks_passed = total.checks_passed && outcome->checks_passed;
      total.problems.insert(total.problems.end(), outcome->problems.begin(),
                            outcome->problems.end());
    }
    total.layers.insert(total.layers.end(), traced.layers.begin(),
                        traced.layers.end());
    total.layers.push_back(
        Metric{"obs.overhead_share." + std::string(name),
               traced.latency_p50_ms / plain.latency_p50_ms - 1.0, "ratio"});
  }
  const std::string stem = args.run.workdir + "/perfbench-trace-" +
                           std::to_string(args.run.seed);
  for (const auto& [name, tracer] : tracers) {
    const std::string path = stem + "-" + std::string(name) + ".spans.jsonl";
    tracer.write_jsonl(path);
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 tracer.size(), path.c_str());
  }
  std::ofstream registry_out(stem + ".obs.txt", std::ios::trunc);
  registry.render_text(registry_out);
  return total;
}

void print_result(const Outcome& outcome, const std::vector<Metric>& metrics,
                  std::size_t latency_samples) {
  bool finite = true;
  for (const Metric& metric : metrics) {
    std::printf("%-48s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    finite = finite && std::isfinite(metric.value);
  }
  if (latency_samples > 0) {
    std::printf("latency samples: %zu\n", latency_samples);
  }
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  const bool correct = outcome.correct() && finite;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", outcome.attempted, outcome.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.traced) {
      const Outcome outcome = run_traced(args);
      print_result(outcome, outcome.layers, 0);
    } else {
      const Outcome outcome = run_one(args, args.workload, args.run.seconds,
                                      nullptr, nullptr);
      print_result(outcome, outcome.metrics, outcome.latency_samples);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
