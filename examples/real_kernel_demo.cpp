// Runs the *real* arithmetic-intensity microbenchmark (the paper's
// synthetic kernel, Section IV / Fig. 2) natively on this machine:
// threads stand in for MPI ranks, a spin barrier for MPI_Barrier.
// Sweeps computational intensity and vector width, then demonstrates the
// waiting-rank slack the power balancer exploits.
//
//   ./real_kernel_demo [threads]
#include <algorithm>
#include <cstdio>
#include <thread>

#include "kernel/arithmetic_kernel.hpp"
#include "util/table.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace ps;
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  std::size_t threads = std::clamp<std::size_t>(cores, 1, 4);
  if (argc > 1) {
    try {
      threads = util::parse_count("threads", argv[1]);
    } catch (const InvalidArgument& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 2;
    }
  }

  std::printf("Arithmetic-intensity kernel, %zu threads, native "
              "execution (%zu hardware threads)\n\n", threads, cores);

  // Sweep 1: intensity x width throughput (the kernel behind Fig. 3).
  util::TextTable sweep;
  sweep.add_column("FLOPs/byte", util::Align::kRight, 2);
  sweep.add_column("width", util::Align::kLeft);
  sweep.add_column("GFLOPS", util::Align::kRight, 2);
  sweep.add_column("GB/s", util::Align::kRight, 2);
  for (double intensity : {0.25, 1.0, 4.0, 16.0}) {
    for (hw::VectorWidth width :
         {hw::VectorWidth::kScalar, hw::VectorWidth::kYmm256}) {
      kernel::KernelOptions options;
      options.threads = threads;
      options.elements_per_thread = 1 << 16;
      options.iterations = 8;
      options.config.intensity = intensity;
      options.config.vector_width = width;
      const kernel::KernelReport report =
          kernel::run_arithmetic_kernel(options);
      sweep.begin_row();
      sweep.add_number(intensity);
      sweep.add_cell(std::string(hw::to_string(width)));
      sweep.add_number(report.achieved_gflops);
      sweep.add_number(report.total_gigabytes / report.elapsed_seconds);
    }
  }
  std::printf("%s\n", sweep.to_string().c_str());

  // Sweep 2: waiting-rank slack (Fig. 2's structure, measured).
  std::printf("Waiting-rank slack (fraction of each iteration waiting "
              "ranks spend\npolling at the barrier — the headroom the "
              "power balancer harvests):\n\n");
  util::TextTable slack;
  slack.add_column("waiting ranks", util::Align::kRight, 0);
  slack.add_column("imbalance", util::Align::kRight, 0);
  slack.add_column("slack", util::Align::kRight, 1);
  for (double waiting : {0.25, 0.5}) {
    for (double imbalance : {2.0, 3.0}) {
      kernel::KernelOptions options;
      // At least 4 ranks so a 25% waiting fraction rounds to >= 1 rank.
      options.threads = std::max<std::size_t>(threads, 4);
      options.elements_per_thread = 1 << 15;
      options.iterations = 12;
      options.config.intensity = 8.0;
      options.config.waiting_fraction = waiting;
      options.config.imbalance = imbalance;
      const kernel::KernelReport report =
          kernel::run_arithmetic_kernel(options);
      slack.begin_row();
      slack.add_percent(waiting);
      slack.add_cell(util::format_fixed(imbalance, 0) + "x");
      slack.add_percent(report.waiting_slack_fraction());
    }
  }
  std::printf("%s\n", slack.to_string().c_str());
  std::printf("With m-fold imbalance, waiting ranks idle ~ (m-1)/m of the "
              "iteration —\nenergy burned polling that an application-aware"
              " policy reclaims.\n");
  if (cores < 4) {
    std::printf("(Note: this host has only %zu hardware thread(s); "
                "oversubscription inflates\nthe measured slack.)\n", cores);
  }
  return 0;
}
