#include "sim/job_sim.hpp"

#include <gtest/gtest.h>

#include "sim/cluster.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ps::sim {
namespace {

std::vector<hw::NodeModel*> hosts_of(Cluster& cluster, std::size_t count) {
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < count; ++i) {
    hosts.push_back(&cluster.node(i));
  }
  return hosts;
}

kernel::WorkloadConfig imbalanced_config() {
  kernel::WorkloadConfig config;
  config.intensity = 8.0;
  config.waiting_fraction = 0.5;
  config.imbalance = 2.0;
  return config;
}

TEST(JobSimTest, WaitingHostCountRoundsFraction) {
  Cluster cluster(10);
  JobSimulation job("j", hosts_of(cluster, 10), imbalanced_config());
  EXPECT_EQ(job.waiting_host_count(), 5u);
  EXPECT_TRUE(job.is_waiting_host(0));
  EXPECT_TRUE(job.is_waiting_host(4));
  EXPECT_FALSE(job.is_waiting_host(5));
}

TEST(JobSimTest, BalancedJobHasNoWaitingHosts) {
  Cluster cluster(4);
  JobSimulation job("j", hosts_of(cluster, 4), kernel::WorkloadConfig{});
  EXPECT_EQ(job.waiting_host_count(), 0u);
}

TEST(JobSimTest, AlwaysKeepsOneCriticalHost) {
  Cluster cluster(4);
  kernel::WorkloadConfig config;
  config.waiting_fraction = 0.99;
  config.imbalance = 2.0;
  JobSimulation job("j", hosts_of(cluster, 4), config);
  EXPECT_LT(job.waiting_host_count(), 4u);
}

TEST(JobSimTest, HostGigabytesReflectRole) {
  Cluster cluster(4);
  kernel::WorkloadConfig config = imbalanced_config();
  config.gigabytes_per_iteration = 2.0;
  JobSimulation job("j", hosts_of(cluster, 4), config);
  EXPECT_DOUBLE_EQ(job.host_gigabytes(0), 2.0);  // waiting
  EXPECT_DOUBLE_EQ(job.host_gigabytes(3), 4.0);  // critical (2x)
}

TEST(JobSimTest, IterationTimeSetByCriticalPath) {
  Cluster cluster(4);
  JobSimulation job("j", hosts_of(cluster, 4), imbalanced_config());
  const IterationResult result = job.run_iteration();
  EXPECT_FALSE(result.hosts[result.critical_host_index].waiting_host);
  for (const auto& host : result.hosts) {
    EXPECT_LE(host.busy_seconds, result.iteration_seconds + 1e-12);
    EXPECT_NEAR(host.busy_seconds + host.poll_seconds,
                result.iteration_seconds, 1e-12);
  }
}

TEST(JobSimTest, WaitingHostsPollHalfTheIteration) {
  Cluster cluster(4);
  JobSimulation job("j", hosts_of(cluster, 4), imbalanced_config());
  const IterationResult result = job.run_iteration();
  for (std::size_t i = 0; i < 4; ++i) {
    if (result.hosts[i].waiting_host) {
      // Critical path does 2x the work, so waiting hosts poll ~half.
      EXPECT_NEAR(result.hosts[i].poll_seconds / result.iteration_seconds,
                  0.5, 0.05);
    }
  }
}

TEST(JobSimTest, EnergyAggregatesAcrossHosts) {
  Cluster cluster(3);
  JobSimulation job("j", hosts_of(cluster, 3), kernel::WorkloadConfig{});
  const IterationResult result = job.run_iteration();
  double expected = 0.0;
  for (const auto& host : result.hosts) {
    expected += host.energy_joules;
  }
  EXPECT_NEAR(result.total_energy_joules, expected, 1e-9);
  EXPECT_GT(result.average_node_power_watts, 100.0);
}

TEST(JobSimTest, TotalsAccumulateOverIterations) {
  Cluster cluster(2);
  JobSimulation job("j", hosts_of(cluster, 2), kernel::WorkloadConfig{});
  double elapsed = 0.0;
  double energy = 0.0;
  for (int i = 0; i < 5; ++i) {
    const IterationResult result = job.run_iteration();
    elapsed += result.iteration_seconds;
    energy += result.total_energy_joules;
  }
  EXPECT_EQ(job.totals().iterations, 5u);
  EXPECT_NEAR(job.totals().elapsed_seconds, elapsed, 1e-9);
  EXPECT_NEAR(job.totals().energy_joules, energy, 1e-9);
  job.reset_totals();
  EXPECT_EQ(job.totals().iterations, 0u);
}

TEST(JobSimTest, CapsChangeIterationBehavior) {
  Cluster cluster(2);
  kernel::WorkloadConfig config;
  config.intensity = 32.0;  // compute-bound: caps matter
  JobSimulation job("j", hosts_of(cluster, 2), config);
  const double fast = job.run_iteration().iteration_seconds;
  job.set_host_cap(0, 170.0);
  job.set_host_cap(1, 170.0);
  const double slow = job.run_iteration().iteration_seconds;
  EXPECT_GT(slow, fast * 1.05);
}

TEST(JobSimTest, TotalAllocatedPowerSumsCaps) {
  Cluster cluster(3);
  JobSimulation job("j", hosts_of(cluster, 3), kernel::WorkloadConfig{});
  job.set_host_cap(0, 200.0);
  job.set_host_cap(1, 180.0);
  job.set_host_cap(2, 160.0);
  EXPECT_NEAR(job.total_allocated_power(), 540.0, 1.0);
}

TEST(JobSimTest, NoiseChangesIterationsButPreservesScale) {
  Cluster cluster(2);
  NoiseParams noise{0.01};
  JobSimulation job("j", hosts_of(cluster, 2), kernel::WorkloadConfig{},
                    noise, util::Rng(99));
  const double t1 = job.run_iteration().iteration_seconds;
  const double t2 = job.run_iteration().iteration_seconds;
  EXPECT_NE(t1, t2);
  EXPECT_NEAR(t1, t2, t1 * 0.1);
}

TEST(JobSimTest, NoiselessIsDeterministic) {
  Cluster cluster(2);
  JobSimulation job("j", hosts_of(cluster, 2), kernel::WorkloadConfig{});
  const double t1 = job.run_iteration().iteration_seconds;
  const double t2 = job.run_iteration().iteration_seconds;
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(JobSimTest, GflopCountsOnlyUsefulWork) {
  Cluster cluster(4);
  kernel::WorkloadConfig config = imbalanced_config();
  JobSimulation job("j", hosts_of(cluster, 4), config);
  const IterationResult result = job.run_iteration();
  for (const auto& host : result.hosts) {
    EXPECT_GT(host.gflop, 0.0);
  }
  // Critical hosts do 2x the flops of waiting hosts.
  EXPECT_NEAR(result.hosts[3].gflop, 2.0 * result.hosts[0].gflop,
              result.hosts[0].gflop * 0.01);
}

TEST(JobSimTest, InvalidConstructionRejected) {
  Cluster cluster(2);
  EXPECT_THROW(
      JobSimulation("j", {}, kernel::WorkloadConfig{}),
      ps::InvalidArgument);
  EXPECT_THROW(JobSimulation("j", {nullptr}, kernel::WorkloadConfig{}),
               ps::InvalidArgument);
  kernel::WorkloadConfig bad;
  bad.imbalance = 0.0;
  EXPECT_THROW(JobSimulation("j", hosts_of(cluster, 2), bad),
               ps::InvalidArgument);
}

TEST(JobSimTest, JobTotalsDerivedMetrics) {
  JobTotals totals;
  totals.iterations = 10;
  totals.elapsed_seconds = 2.0;
  totals.energy_joules = 800.0;
  totals.gflop = 400.0;
  EXPECT_DOUBLE_EQ(totals.average_power_watts(2), 200.0);
  EXPECT_DOUBLE_EQ(totals.gflops_per_watt(2), 0.5);
  EXPECT_DOUBLE_EQ(totals.energy_delay_product(), 1600.0);
  EXPECT_DOUBLE_EQ(JobTotals{}.average_power_watts(2), 0.0);
}

}  // namespace
}  // namespace ps::sim
