// Pins JobSimulation::run_iteration bit for bit: every HostIterationResult
// field (GPU telemetry included), every IterationResult field and the
// JobTotals, folded into one FNV-1a digest per scenario. One scenario is a
// CPU-only job; the other mixes GPU hosts (one or two devices, different
// GPU caps) with device-less hosts so the iteration hits both the
// CPU-waits-on-offload branch and the device idle tail. Both drive cap
// changes, noise, a straggler and a failed host. A refactor of the
// iteration pass must leave both digests unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/job_sim.hpp"
#include "util/rng.hpp"

namespace ps::sim {
namespace {

/// FNV-1a over the bit patterns of every value fed to it.
class Digest {
 public:
  void add(std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

  void add(const IterationResult& result) {
    add(result.iteration_seconds);
    add(result.total_energy_joules);
    add(result.total_gflop);
    add(result.average_node_power_watts);
    add(static_cast<std::uint64_t>(result.critical_host_index));
    add(static_cast<std::uint64_t>(result.hosts.size()));
    for (const HostIterationResult& host : result.hosts) {
      add(static_cast<std::uint64_t>(host.node));
      add(static_cast<std::uint64_t>(host.waiting_host ? 1 : 0));
      add(host.busy_seconds);
      add(host.poll_seconds);
      add(host.energy_joules);
      add(host.gflop);
      add(host.frequency_ghz);
      add(host.average_power_watts);
      add(host.gpu_busy_seconds);
      add(host.gpu_energy_joules);
      add(host.gpu_gflop);
      add(host.gpu_clock_ghz);
      add(host.gpu_average_power_watts);
    }
  }

  void add(const JobTotals& totals) {
    add(static_cast<std::uint64_t>(totals.iterations));
    add(totals.elapsed_seconds);
    add(totals.energy_joules);
    add(totals.gflop);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

constexpr std::size_t kHosts = 8;

std::vector<hw::NodeModel*> hosts_of(Cluster& cluster) {
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < kHosts; ++i) {
    hosts.push_back(&cluster.node(i));
  }
  return hosts;
}

kernel::WorkloadConfig imbalanced_config() {
  kernel::WorkloadConfig config;
  config.intensity = 8.0;
  config.waiting_fraction = 0.5;
  config.imbalance = 2.0;
  config.gigabytes_per_iteration = 1.5;
  return config;
}

/// Which GPU branches the mixed scenario reached, over all iterations.
struct GpuCoverage {
  bool cpu_waited = false;  ///< A host's CPU busy-polled on its offload.
  bool gpu_idled = false;   ///< A host's devices idled to the barrier.
};

/// Drives `job` through four warm iterations, a cap change, a straggler
/// and a failed host (four more iterations), digesting every result.
std::uint64_t drive(JobSimulation& job, GpuCoverage& coverage) {
  Digest digest;
  const auto step = [&] {
    const IterationResult result = job.run_iteration();
    for (const HostIterationResult& host : result.hosts) {
      if (host.gpu_busy_seconds <= 0.0) {
        continue;
      }
      coverage.cpu_waited |= host.busy_seconds == host.gpu_busy_seconds;
      coverage.gpu_idled |= host.gpu_busy_seconds < result.iteration_seconds;
    }
    digest.add(result);
  };
  for (int i = 0; i < 4; ++i) {
    step();
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    job.set_host_cap(h, 150.0 + 5.0 * static_cast<double>(h));
  }
  step();
  job.set_host_slowdown(2, 1.5);
  step();
  job.set_host_failed(5, true);
  for (int i = 0; i < 4; ++i) {
    step();
  }
  digest.add(job.totals());
  return digest.value();
}

TEST(JobSimDigestTest, CpuOnlyIterationsArePinned) {
  Cluster cluster(kHosts);
  JobSimulation job("j", hosts_of(cluster), imbalanced_config(),
                    NoiseParams{0.01}, util::Rng(7));
  ASSERT_FALSE(job.has_gpu_domain());
  GpuCoverage coverage;
  EXPECT_EQ(drive(job, coverage), 3461059987431189804ULL);
  EXPECT_FALSE(coverage.cpu_waited || coverage.gpu_idled);
}

TEST(JobSimDigestTest, MixedCpuGpuIterationsArePinned) {
  // Hosts 1 and 6 have no device, host 7 has two and the rest one (host
  // 5 fails later). Minimum GPU caps on hosts 0 and 3 stretch the offload
  // past the CPU phase; the other devices finish early and idle.
  Cluster cluster(kHosts);
  for (const std::size_t h : {0U, 2U, 3U, 4U, 5U, 7U}) {
    cluster.node(h).attach_gpu();
  }
  cluster.node(7).attach_gpu();
  kernel::WorkloadConfig config = imbalanced_config();
  config.gpu_gigabytes_per_iteration = 60.0;
  config.gpu_intensity = 40.0;
  JobSimulation job("j", hosts_of(cluster), config, NoiseParams{0.01},
                    util::Rng(7));
  ASSERT_TRUE(job.has_gpu_domain());
  ASSERT_FALSE(job.host_has_gpu_phase(1));
  ASSERT_FALSE(job.host_has_gpu_phase(6));
  job.set_host_gpu_cap(0, job.host_gpu_min_cap(0));
  job.set_host_gpu_cap(3, job.host_gpu_min_cap(3));
  GpuCoverage coverage;
  EXPECT_EQ(drive(job, coverage), 17668298100869523133ULL);
  EXPECT_TRUE(coverage.cpu_waited);
  EXPECT_TRUE(coverage.gpu_idled);
}

}  // namespace
}  // namespace ps::sim
