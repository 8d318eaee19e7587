#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "analysis/experiment.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

namespace ps::bench {

/// Reads a harness's command line: declares `--help`, parses argv into
/// `parser`, then calls `read(parser)` to pull the typed values. `--help`
/// prints the options and exits 0; an unknown option, a missing value or
/// a malformed number prints one line to stderr and exits 2.
template <typename Read>
auto read_command_line(util::ArgParser& parser, int argc,
                       const char* const* argv, Read read) {
  parser.add_flag("--help", "print this help and exit");
  try {
    parser.parse(argc, argv);
    if (parser.flag("--help")) {
      std::printf("usage: %s [options]\n%s", argv[0], parser.help().c_str());
      std::exit(0);
    }
    return read(parser);
  } catch (const InvalidArgument& error) {
    std::fprintf(stderr, "%s: %s (see --help)\n", argv[0], error.what());
    std::exit(2);
  }
}

/// Shared command line for the figure/table harnesses:
///   --quick        reduced scale (12 nodes/job, 20 iterations)
///   --nodes N      nodes per job (paper: 100)
///   --iterations N measured iterations per run (paper: 100)
///   --no-variation homogeneous nodes instead of the Quartz model
///   --jobs N       sweep worker threads (0 = all cores, 1 = serial)
///
/// Explicit --nodes / --iterations override the --quick defaults, so
/// `--quick --nodes 8` runs 8 nodes/job at quick iteration count.
inline analysis::ExperimentOptions parse_options(int argc, char** argv) {
  util::ArgParser parser;
  parser.add_flag("--quick", "reduced scale (12 nodes/job, 20 iterations)")
      .add_flag("--no-variation", "homogeneous nodes")
      .add_option("--nodes", "100", "nodes per job")
      .add_option("--iterations", "100", "measured iterations per run")
      .add_option("--jobs", "0",
                  "sweep worker threads (0 = all cores, 1 = serial)")
      .add_option("--out", "", "CSV output path (default: under build/)");
  const auto read = [](const util::ArgParser& args) {
    analysis::ExperimentOptions options;
    options.characterization_iterations = 5;
    if (args.flag("--quick")) {
      options.nodes_per_job =
          args.provided("--nodes") ? args.option_size("--nodes") : 12;
      options.iterations = args.provided("--iterations")
                               ? args.option_size("--iterations")
                               : 20;
    } else {
      options.nodes_per_job = args.option_size("--nodes");
      options.iterations = args.option_size("--iterations");
    }
    options.hardware_variation = !args.flag("--no-variation");
    options.sweep_workers = args.option_size("--jobs");
    return options;
  };
  return read_command_line(parser, argc, argv, read);
}

/// Where a harness should write its CSV deliverable: `--out PATH` wins;
/// otherwise `default_name` under ./build when that directory exists
/// (running from the repo root must not litter the source tree), else
/// the current directory.
inline std::string output_path(int argc, const char* const* argv,
                               std::string_view default_name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--out") {
      return argv[i + 1];
    }
  }
  const std::filesystem::path build = "build";
  std::error_code ec;
  if (std::filesystem::is_directory(build, ec)) {
    return (build / default_name).string();
  }
  return std::string(default_name);
}

/// Scales a mix-level wattage to the paper's 900-node deployment so the
/// printed numbers are directly comparable with Table III even when the
/// harness runs at reduced scale.
inline double to_paper_scale_kw(double watts, std::size_t hosts) {
  return watts / static_cast<double>(hosts) * 900.0 / 1000.0;
}

}  // namespace ps::bench
