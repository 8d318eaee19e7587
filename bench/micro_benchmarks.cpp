// google-benchmark micro-benchmarks for the stack's hot paths: the policy
// allocators, the balancer search, the node fixed-point solve, the
// bulk-synchronous simulator, k-means, and the real arithmetic kernel.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "analysis/experiment.hpp"
#include "analysis/sweep.hpp"
#include "core/budget_governor.hpp"
#include "core/coordination.hpp"
#include "core/endpoint.hpp"
#include "core/policies.hpp"
#include "hw/node.hpp"
#include "hw/rapl.hpp"
#include "kernel/arithmetic_kernel.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/framing.hpp"
#include "net/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rm/power_manager.hpp"
#include "runtime/agent_tree.hpp"
#include "runtime/power_balancer_agent.hpp"
#include "sim/cluster.hpp"
#include "util/error.hpp"
#include "util/kmeans.hpp"
#include "util/rng.hpp"

namespace {

using namespace ps;

core::PolicyContext make_context(std::size_t jobs, std::size_t hosts) {
  core::PolicyContext context;
  context.system_budget_watts =
      190.0 * static_cast<double>(jobs * hosts);
  context.node_tdp_watts = 256.0;
  for (std::size_t j = 0; j < jobs; ++j) {
    runtime::JobCharacterization job;
    job.host_count = hosts;
    job.min_settable_cap_watts = 152.0;
    for (std::size_t h = 0; h < hosts; ++h) {
      const bool waiting = h < hosts / 2;
      job.monitor.host_average_power_watts.push_back(214.0 +
                                                     (j % 3) * 5.0);
      job.balancer.host_needed_power_watts.push_back(waiting ? 152.0
                                                             : 219.0);
    }
    job.monitor.max_host_power_watts = 228.0;
    job.monitor.min_host_power_watts = 209.0;
    job.balancer.max_host_needed_watts = 219.0;
    job.balancer.min_host_needed_watts = 152.0;
    context.jobs.push_back(std::move(job));
  }
  return context;
}

void BM_PolicyAllocate(benchmark::State& state,
                       core::PolicyKind kind) {
  const core::PolicyContext context =
      make_context(9, static_cast<std::size_t>(state.range(0)));
  const auto policy = core::make_policy(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->allocate(context));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(9 * state.range(0)));
}

BENCHMARK_CAPTURE(BM_PolicyAllocate, StaticCaps,
                  core::PolicyKind::kStaticCaps)
    ->Arg(100);
BENCHMARK_CAPTURE(BM_PolicyAllocate, MinimizeWaste,
                  core::PolicyKind::kMinimizeWaste)
    ->Arg(100);
BENCHMARK_CAPTURE(BM_PolicyAllocate, JobAdaptive,
                  core::PolicyKind::kJobAdaptive)
    ->Arg(100);
BENCHMARK_CAPTURE(BM_PolicyAllocate, MixedAdaptive,
                  core::PolicyKind::kMixedAdaptive)
    ->Arg(100)
    ->Arg(1000);

void BM_NodeFixedPointSolve(benchmark::State& state) {
  const hw::NodeModel node(0, 1.0);
  double cap = 160.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        node.preview_compute(2.0, 8.0, hw::VectorWidth::kYmm256, cap));
    cap = cap >= 250.0 ? 160.0 : cap + 1.0;  // defeat memoization
  }
}
BENCHMARK(BM_NodeFixedPointSolve);

void BM_BalancePowerSearch(benchmark::State& state) {
  sim::Cluster cluster(static_cast<std::size_t>(state.range(0)));
  kernel::WorkloadConfig config;
  config.intensity = 16.0;
  config.waiting_fraction = 0.5;
  config.imbalance = 3.0;
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    hosts.push_back(&cluster.node(i));
  }
  sim::JobSimulation job("bench", hosts, config);
  const double budget = 200.0 * static_cast<double>(cluster.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::balance_power(job, budget));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BalancePowerSearch)->Arg(10)->Arg(100);

// Args: hosts, GPU devices per host. With devices the job offloads a GPU
// phase, so the iteration also runs the GPU lane.
void BM_SimulatorIteration(benchmark::State& state) {
  sim::Cluster cluster(static_cast<std::size_t>(state.range(0)));
  kernel::WorkloadConfig config;
  config.intensity = 8.0;
  config.waiting_fraction = 0.25;
  config.imbalance = 2.0;
  const auto devices = static_cast<std::size_t>(state.range(1));
  if (devices > 0) {
    config.gpu_gigabytes_per_iteration = 60.0;
    config.gpu_intensity = 40.0;
  }
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    for (std::size_t g = 0; g < devices; ++g) {
      cluster.node(i).attach_gpu();
    }
    hosts.push_back(&cluster.node(i));
  }
  sim::JobSimulation job("bench", hosts, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(job.run_iteration());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorIteration)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({900, 0});

// Per-layer numbers for the hw substrate under the simulator: the RAPL
// energy counter every phase accrues into, the node cap write every
// allocation applies, and the barrier poll every waiting host runs.
void BM_RaplAccumulateEnergy(benchmark::State& state) {
  hw::RaplPackageDomain package(hw::QuartzSpec::kTdpPerSocketW,
                                hw::QuartzSpec::kMinRaplPerSocketW);
  const double joules = static_cast<double>(state.range(0)) * 1e-3;
  for (auto _ : state) {
    package.accumulate_energy(joules);
    benchmark::DoNotOptimize(&package);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(package.read_energy_joules());
}
BENCHMARK(BM_RaplAccumulateEnergy)->Arg(1250);

void BM_NodeSetPowerCap(benchmark::State& state) {
  hw::NodeParams params;
  params.cap_split = hw::CapSplitPolicy::kEfficiencyAware;
  hw::NodeModel node(0, 1.0, 1.1, params);
  const double low = static_cast<double>(state.range(0));
  double cap = low;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.set_power_cap(cap));
    cap = cap >= low + 90.0 ? low : cap + 1.0;
  }
}
BENCHMARK(BM_NodeSetPowerCap)->Arg(160);

void BM_NodeRunPoll(benchmark::State& state) {
  hw::NodeModel node(0, 1.0);
  node.set_power_cap(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.run_poll(0.01));
  }
  benchmark::DoNotOptimize(node.read_energy_joules());
}
BENCHMARK(BM_NodeRunPoll)->Arg(200);

void BM_TreeAggregate(benchmark::State& state) {
  const runtime::TreeTopology tree = runtime::TreeTopology::balanced(
      static_cast<std::size_t>(state.range(0)), 8);
  std::vector<double> leaves(static_cast<std::size_t>(state.range(0)),
                             200.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.aggregate_sum(leaves));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeAggregate)->Arg(900);

void BM_EndpointRoundTrip(benchmark::State& state) {
  core::SampleMessage message;
  message.sequence = 1;
  message.job_name = "bench-job";
  message.min_settable_cap_watts = 152.0;
  message.host_observed_watts.assign(
      static_cast<std::size_t>(state.range(0)), 214.125);
  message.host_needed_watts.assign(
      static_cast<std::size_t>(state.range(0)), 186.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::parse_sample_message(core::serialize(message)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EndpointRoundTrip)->Arg(100);

core::SampleMessage wire_bench_sample(std::size_t hosts) {
  core::SampleMessage message;
  message.sequence = 1;
  message.job_name = "bench-job";
  message.min_settable_cap_watts = 152.0;
  message.host_observed_watts.assign(hosts, 214.125);
  message.host_needed_watts.assign(hosts, 186.5);
  return message;
}

void BM_MessageSerialize(benchmark::State& state) {
  const core::SampleMessage message =
      wire_bench_sample(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string wire =
        core::serialize(message, core::WireFidelity::kExact);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MessageSerialize)->Arg(100)->Arg(1000);

void BM_MessageParse(benchmark::State& state) {
  const std::string wire = core::serialize(
      wire_bench_sample(static_cast<std::size_t>(state.range(0))),
      core::WireFidelity::kExact);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::parse_sample_message(wire));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_MessageParse)->Arg(100)->Arg(1000);

/// One rack's frames in the 10k-job tree round: `jobs` one-host jobs in
/// name order, seeded watts, exact fidelity on the wire.
core::RackSampleMessage rack_bench_samples(std::size_t jobs) {
  util::Rng rng(5);
  core::RackSampleMessage rack;
  rack.rack = "rack0";
  rack.round = 7;
  for (std::size_t j = 0; j < jobs; ++j) {
    char name[32];
    std::snprintf(name, sizeof(name), "job-%06zu", j);
    core::SampleMessage sample;
    sample.sequence = 7;
    sample.job_name = name;
    sample.min_settable_cap_watts = 80.0;
    sample.host_needed_watts = {rng.uniform(120.0, 250.0)};
    sample.host_observed_watts = {rng.uniform(110.0, 256.0)};
    rack.samples.push_back(std::move(sample));
  }
  return rack;
}

core::RackPolicyMessage rack_bench_policies(std::size_t jobs) {
  util::Rng rng(6);
  core::RackPolicyMessage rack;
  rack.rack = "rack0";
  rack.round = 7;
  for (std::size_t j = 0; j < jobs; ++j) {
    char name[32];
    std::snprintf(name, sizeof(name), "job-%06zu", j);
    core::PolicyMessage policy;
    policy.sequence = 7;
    policy.job_name = name;
    policy.host_caps_watts = {rng.uniform(80.0, 256.0)};
    rack.rack_budget_watts += policy.host_caps_watts[0];
    rack.policies.push_back(std::move(policy));
  }
  return rack;
}

/// The rack codec on one frame of the tree round: serialize or parse a
/// rack-sample or rack-policy frame of range(0) jobs.
void BM_RackCodec(benchmark::State& state, bool policy, bool parse) {
  const std::size_t jobs = static_cast<std::size_t>(state.range(0));
  const core::RackSampleMessage samples = rack_bench_samples(jobs);
  const core::RackPolicyMessage policies = rack_bench_policies(jobs);
  const std::string wire =
      policy ? core::serialize(policies, core::WireFidelity::kExact)
             : core::serialize(samples, core::WireFidelity::kExact);
  for (auto _ : state) {
    if (parse && policy) {
      benchmark::DoNotOptimize(core::parse_rack_policy_message(wire));
    } else if (parse) {
      benchmark::DoNotOptimize(core::parse_rack_sample_message(wire));
    } else if (policy) {
      benchmark::DoNotOptimize(
          core::serialize(policies, core::WireFidelity::kExact));
    } else {
      benchmark::DoNotOptimize(
          core::serialize(samples, core::WireFidelity::kExact));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK_CAPTURE(BM_RackCodec, SampleSerialize, false, false)
    ->Arg(2500)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RackCodec, SampleParse, false, true)
    ->Arg(2500)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RackCodec, PolicySerialize, true, false)
    ->Arg(2500)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RackCodec, PolicyParse, true, true)
    ->Arg(2500)
    ->Unit(benchmark::kMicrosecond);

/// Full daemon round-trip latency over the in-process loopback transport:
/// framed sample up, policy allocation, framed caps back.
void BM_DaemonRoundTrip(benchmark::State& state) {
  const auto hosts = static_cast<std::size_t>(state.range(0));
  net::DaemonOptions options;
  options.system_budget_watts = 190.0 * static_cast<double>(hosts);
  net::PowerDaemon daemon(options);
  auto [client_end, daemon_end] = net::loopback_pair();
  daemon.adopt(std::move(daemon_end));
  std::thread serving([&daemon] { daemon.run(); });

  net::Socket socket = std::move(client_end);
  bool moved = false;
  net::RuntimeClient client([&socket, &moved]() -> net::Socket {
    if (moved) {
      throw Error("loopback exhausted");
    }
    moved = true;
    return std::move(socket);
  });
  core::SampleMessage message = wire_bench_sample(hosts);
  message.sequence = 0;
  for (auto _ : state) {
    ++message.sequence;
    benchmark::DoNotOptimize(client.exchange(message));
  }
  daemon.stop();
  serving.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DaemonRoundTrip)->Arg(8)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

net::DaemonSnapshot bench_snapshot(std::size_t jobs, std::size_t hosts) {
  net::DaemonSnapshot snapshot;
  snapshot.system_budget_watts =
      190.0 * static_cast<double>(jobs * hosts);
  snapshot.launch_barrier_met = true;
  snapshot.allocations = 12;
  for (std::size_t j = 0; j < jobs; ++j) {
    net::SnapshotJob job;
    job.name = "bench-job-" + std::to_string(j);
    job.sequence = 12;
    for (std::size_t h = 0; h < hosts; ++h) {
      job.caps_watts.push_back(181.25 + 0.125 * static_cast<double>(h));
    }
    snapshot.jobs.push_back(std::move(job));
  }
  return snapshot;
}

/// The write-ahead snapshot's CPU cost per allocation round: serialize
/// (checksummed text) plus the restart-side parse/validate, in memory.
void BM_SnapshotSerializeRestore(benchmark::State& state) {
  const net::DaemonSnapshot snapshot =
      bench_snapshot(static_cast<std::size_t>(state.range(0)), 100);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = net::serialize(snapshot);
    bytes = text.size();
    benchmark::DoNotOptimize(net::parse_snapshot(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 100);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapshotSerializeRestore)->Arg(4)->Arg(9);

/// The durable write-ahead cost (tmp file + fsync + rename) the daemon
/// pays before answering a round, plus the restart-side load.
void BM_SnapshotWriteAheadDisk(benchmark::State& state) {
  const net::DaemonSnapshot snapshot =
      bench_snapshot(static_cast<std::size_t>(state.range(0)), 100);
  const std::string path =
      "/tmp/ps-bench-" + std::to_string(::getpid()) + ".snap";
  for (auto _ : state) {
    net::save_snapshot(path, snapshot);
    benchmark::DoNotOptimize(net::load_snapshot(path));
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotWriteAheadDisk)->Arg(9)
    ->Unit(benchmark::kMicrosecond);

/// Reclaim-on-disconnect round trip: a registered client's connection
/// dies, and the benchmark measures until the daemon has evicted the
/// job and returned its watts to the pool (grace zero, 1 ms ticks — the
/// floor of the daemon's detection latency).
void BM_ReclaimOnDisconnect(benchmark::State& state) {
  net::DaemonOptions options;
  options.system_budget_watts = 400.0;
  options.min_jobs = 1;
  options.tick_interval = std::chrono::milliseconds(1);
  options.reclaim_timeout = std::chrono::milliseconds(0);
  net::PowerDaemon daemon(options);
  std::thread serving([&daemon] { daemon.run(); });

  const std::string frame = net::encode_frame(
      core::serialize(wire_bench_sample(2), core::WireFidelity::kExact));
  std::uint64_t evicted = 0;
  for (auto _ : state) {
    auto [client_end, daemon_end] = net::loopback_pair();
    daemon.adopt(std::move(daemon_end));
    {
      net::Socket socket = std::move(client_end);
      std::string_view rest = frame;
      while (!rest.empty()) {
        const net::IoResult result = socket.write_some(rest);
        if (result.status == net::IoStatus::kOk) {
          rest.remove_prefix(result.bytes);
        } else {
          static_cast<void>(
              socket.wait_writable(std::chrono::milliseconds(1'000)));
        }
      }
      net::FrameDecoder decoder;
      char buffer[4096];
      while (!decoder.next().has_value()) {
        static_cast<void>(
            socket.wait_readable(std::chrono::milliseconds(1'000)));
        const net::IoResult result =
            socket.read_some(buffer, sizeof(buffer));
        if (result.status == net::IoStatus::kOk) {
          decoder.feed(std::string_view(buffer, result.bytes));
        }
      }
    }  // the socket closes here: the disconnect the daemon must detect
    ++evicted;
    while (daemon.stats().jobs_evicted < evicted) {
      std::this_thread::yield();
    }
  }
  daemon.stop();
  serving.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReclaimOnDisconnect)->Unit(benchmark::kMicrosecond);

/// Serial-vs-parallel wall time for a reduced Fig. 8 style sweep: three
/// mixes by every (budget level, policy) cell through the SweepExecutor.
/// Arg = worker count; characterization happens once, outside the timed
/// region, mirroring the harnesses' shared prepare step. Compare Arg(1)
/// against Arg(4) for the speedup the --jobs flag buys.
void BM_SweepFig08Grid(benchmark::State& state) {
  analysis::ExperimentOptions options;
  options.nodes_per_job = 6;
  options.iterations = 10;
  options.characterization_iterations = 3;
  options.hardware_variation = false;
  const analysis::ExperimentDriver driver(options);
  const core::MixKind kinds[] = {core::MixKind::kNeedUsedPower,
                                 core::MixKind::kHighImbalance,
                                 core::MixKind::kWastefulPower};
  std::vector<analysis::MixExperiment> experiments;
  std::vector<const analysis::MixExperiment*> prepared;
  for (core::MixKind kind : kinds) {
    experiments.push_back(
        driver.prepare(core::make_mix(kind, options.nodes_per_job)));
  }
  for (const analysis::MixExperiment& experiment : experiments) {
    prepared.push_back(&experiment);
  }
  const std::vector<core::BudgetLevel> levels = core::all_budget_levels();
  const std::vector<core::PolicyKind> policies = {
      core::PolicyKind::kStaticCaps, core::PolicyKind::kMinimizeWaste,
      core::PolicyKind::kJobAdaptive, core::PolicyKind::kMixedAdaptive};
  const analysis::SweepExecutor executor(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::run_grid(executor, prepared, levels, policies));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(prepared.size() * levels.size() *
                                policies.size()));
}
BENCHMARK(BM_SweepFig08Grid)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The budget governor on a noisy signal: one observe() per iteration —
/// the per-control-period cost of dynamic budgets in the loop and the
/// facility sim. Arg = signal length.
void BM_BudgetGovernorObserve(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<double> signal;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    signal.push_back(1'500.0 + rng.normal(0.0, 120.0));
  }
  core::BudgetGovernor governor(1'560.0);
  std::size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        governor.observe(signal[index], index));
    index = (index + 1) % signal.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BudgetGovernorObserve)->Arg(256);

/// The emergency clamp's allocation math (shape-preserving, floor-first
/// proportional scaling) at brownout time. Arg = total host count.
void BM_ClampAllocationToBudget(benchmark::State& state) {
  const auto hosts = static_cast<std::size_t>(state.range(0));
  const std::size_t jobs = 4;
  rm::PowerAllocation allocation;
  std::vector<std::vector<double>> floors;
  for (std::size_t j = 0; j < jobs; ++j) {
    allocation.job_host_caps.emplace_back(hosts / jobs,
                                          200.0 + 5.0 * (j % 3));
    floors.emplace_back(hosts / jobs, 152.0);
  }
  const double budget = 0.7 * allocation.total_watts();  // a 30% brownout
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rm::clamp_allocation_to_budget(allocation, floors, budget));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(hosts));
}
BENCHMARK(BM_ClampAllocationToBudget)->Arg(16)->Arg(256);

/// Observability overhead on the coordination loop's epoch path: the
/// same mix run uninstrumented (Arg 0) and with a metrics registry plus
/// ring-buffered trace sink attached (Arg 1). The docs' epoch-overhead
/// number is the Arg(1)/Arg(0) wall-time ratio; the emits are
/// epoch-grained, so the target is <= 5%.
void BM_ObsOverhead(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  sim::Cluster cluster(8);
  kernel::WorkloadConfig config;
  config.intensity = 16.0;
  config.waiting_fraction = 0.5;
  config.imbalance = 3.0;
  std::vector<std::unique_ptr<sim::JobSimulation>> owned;
  std::vector<sim::JobSimulation*> jobs;
  for (std::size_t j = 0; j < 2; ++j) {
    std::vector<hw::NodeModel*> hosts;
    for (std::size_t h = 0; h < 4; ++h) {
      hosts.push_back(&cluster.node(j * 4 + h));
    }
    owned.push_back(std::make_unique<sim::JobSimulation>(
        "bench-" + std::to_string(j), std::move(hosts), config));
    jobs.push_back(owned.back().get());
  }
  obs::MetricsRegistry registry;
  obs::TraceSink sink(4096);  // ring-bounded, as a daemon would run it
  core::CoordinationOptions options;
  if (instrumented) {
    options.obs.metrics = &registry;
    options.obs.trace = &sink;
  }
  core::CoordinationLoop loop(8.0 * 200.0, options);
  constexpr std::size_t kIterations = 10;  // two epochs per run
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.run(jobs, kIterations));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kIterations / options.epoch_iterations));
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_KMeans1d(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<double> values;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    values.push_back(rng.normal(1.8, 0.1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::kmeans_1d(values, 3));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMeans1d)->Arg(2000);

void BM_ArithmeticKernel(benchmark::State& state, hw::VectorWidth width,
                         double intensity) {
  kernel::KernelOptions options;
  options.threads = 2;
  options.elements_per_thread = 1 << 13;
  options.iterations = 1;
  options.config.intensity = intensity;
  options.config.vector_width = width;
  double gflops = 0.0;
  for (auto _ : state) {
    const kernel::KernelReport report =
        kernel::run_arithmetic_kernel(options);
    gflops = report.achieved_gflops;
    benchmark::DoNotOptimize(report.total_gflop);
  }
  state.counters["GFLOPS"] = gflops;
}
BENCHMARK_CAPTURE(BM_ArithmeticKernel, scalar_i8, hw::VectorWidth::kScalar,
                  8.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArithmeticKernel, ymm_i8, hw::VectorWidth::kYmm256,
                  8.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArithmeticKernel, ymm_i0p25, hw::VectorWidth::kYmm256,
                  0.25)
    ->Unit(benchmark::kMillisecond);

}  // namespace
