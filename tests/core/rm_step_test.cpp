// The one RM step every transport runs: allocate, degrade, then apply,
// hold the caps in force, or clamp onto the budget — with one
// quantization tolerance, 0.5 W per limit the allocation carries.
#include "core/rm_step.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "core/invariants.hpp"
#include "rm/power_manager.hpp"
#include "sim/cluster.hpp"
#include "sim/sla.hpp"

namespace ps::core {
namespace {

using sim::SlaClass;

constexpr double kFloor = 152.0;
constexpr double kGpuFloor = 100.0;

/// A policy that returns a preset allocation, whatever the context.
class FixedPolicy final : public Policy {
 public:
  FixedPolicy(rm::PowerAllocation allocation, bool system_aware)
      : allocation_(std::move(allocation)), system_aware_(system_aware) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "Fixed";
  }
  [[nodiscard]] bool is_system_aware() const noexcept override {
    return system_aware_;
  }
  [[nodiscard]] bool is_application_aware() const noexcept override {
    return false;
  }
  [[nodiscard]] rm::PowerAllocation allocate(
      const PolicyContext& /*context*/) const override {
    return allocation_;
  }

 private:
  rm::PowerAllocation allocation_;
  bool system_aware_;
};

/// One job per job of `allocation`, needing exactly its caps; a job with
/// GPU caps runs a GPU phase on every host.
PolicyContext context_for(const rm::PowerAllocation& allocation,
                          double budget_watts,
                          const std::vector<SlaClass>& classes) {
  PolicyContext context;
  context.system_budget_watts = budget_watts;
  for (std::size_t j = 0; j < allocation.job_host_caps.size(); ++j) {
    runtime::JobCharacterization job;
    job.host_count = allocation.job_host_caps[j].size();
    job.min_settable_cap_watts = kFloor;
    job.balancer.host_needed_power_watts = allocation.job_host_caps[j];
    job.sla_class = classes.empty() ? SlaClass::kStandard : classes[j];
    const std::vector<double>& gpu = allocation.job_gpu_caps(j);
    if (!gpu.empty()) {
      job.host_gpu_needed_watts = gpu;
      job.host_gpu_observed_watts = gpu;
      job.gpu_min_cap_watts = kGpuFloor;
      job.gpu_tdp_watts = 300.0;
    }
    context.jobs.push_back(std::move(job));
  }
  return context;
}

struct StepCase {
  const char* name;
  rm::PowerAllocation allocation;
  std::vector<SlaClass> classes;
  double budget_watts;
  std::optional<double> held_watts;
  bool enforce;
  RmOutcome outcome;
};

rm::PowerAllocation cpu(std::vector<std::vector<double>> caps) {
  rm::PowerAllocation allocation;
  allocation.job_host_caps = std::move(caps);
  return allocation;
}

/// One job, two hosts, two CPU and two GPU limits: 700 W in all.
rm::PowerAllocation cpu_gpu() {
  rm::PowerAllocation allocation;
  allocation.job_host_caps = {{200.0, 200.0}};
  allocation.job_host_gpu_caps = {{150.0, 150.0}};
  return allocation;
}

class RmStepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_mode_ = invariants::mode();
    invariants::set_mode(invariants::Mode::kFatal);
    invariants::reset();
  }
  void TearDown() override {
    invariants::reset();
    invariants::set_mode(previous_mode_);
  }

  invariants::Mode previous_mode_ = invariants::Mode::kCount;
};

TEST_F(RmStepTest, ToleranceIsHalfAWattPerCpuAndGpuLimit) {
  EXPECT_EQ(cpu({{200.0, 200.0}, {190.0}}).budget_tolerance_watts(), 1.5);
  EXPECT_EQ(cpu_gpu().budget_tolerance_watts(), 2.0);
}

TEST_F(RmStepTest, OutcomesFollowTheBudgetTheHeldCapsAndEnforcement) {
  // 900 W of caps over four CPU limits: 2 W of tolerance.
  const rm::PowerAllocation over = cpu({{200.0, 200.0}, {250.0, 250.0}});
  const std::vector<StepCase> cases = {
      {"applied within budget", cpu({{200.0, 200.0}, {190.0, 190.0}}), {},
       800.0, 700.0, true, RmOutcome::kApplied},
      {"held when the caps in force fit", over, {}, 800.0, 802.0, true,
       RmOutcome::kHeld},
      {"clamped when the caps in force do not fit", over, {}, 800.0, 802.5,
       true, RmOutcome::kClamped},
      // Mixed classes: the degradation already sheds best_effort first
      // and fits the budget, so nothing is left for the clamp.
      {"mixed classes shed the lowest class first", over,
       {SlaClass::kBestEffort, SlaClass::kLatencyCritical}, 800.0, 900.0,
       true, RmOutcome::kApplied},
      {"budget-unaware output passes through", over, {}, 800.0, 900.0, false,
       RmOutcome::kApplied},
      {"no hold without caps in force", over, {}, 800.0, std::nullopt, true,
       RmOutcome::kClamped},
      {"CPU+GPU at budget + 0.5 W per limit", cpu_gpu(), {}, 698.0,
       std::nullopt, true, RmOutcome::kApplied},
      {"CPU+GPU one ulp above", cpu_gpu(), {}, std::nextafter(698.0, 0.0),
       std::nullopt, true, RmOutcome::kClamped},
  };
  for (const StepCase& c : cases) {
    SCOPED_TRACE(c.name);
    const PolicyContext context =
        context_for(c.allocation, c.budget_watts, c.classes);
    const RmStepResult step = rm_step(FixedPolicy(c.allocation, c.enforce),
                                      context, c.held_watts, c.enforce);
    EXPECT_EQ(step.outcome, c.outcome);
    switch (c.outcome) {
      case RmOutcome::kApplied:
        if (c.classes.empty()) {
          EXPECT_EQ(step.caps.job_host_caps, c.allocation.job_host_caps);
          EXPECT_EQ(step.caps.job_host_gpu_caps,
                    c.allocation.job_host_gpu_caps);
          EXPECT_EQ(step.shed_watts, 0.0);
        }
        break;
      case RmOutcome::kHeld:
        EXPECT_TRUE(step.caps.job_host_caps.empty());
        break;
      case RmOutcome::kClamped: {
        EXPECT_LE(step.caps.total_watts(), c.budget_watts + 1e-9);
        EXPECT_NEAR(step.shed_watts,
                    c.allocation.total_watts() - step.caps.total_watts(),
                    1e-9);
        for (const auto& caps : step.caps.job_host_caps) {
          for (const double cap : caps) {
            EXPECT_GE(cap, kFloor - 1e-9);
          }
        }
        for (const auto& caps : step.caps.job_host_gpu_caps) {
          for (const double cap : caps) {
            EXPECT_GE(cap, kGpuFloor - 1e-9);
          }
        }
        break;
      }
    }
    if (!c.classes.empty()) {
      // 100 W must go and best_effort holds only 96 W above its floors:
      // it lands on them, and latency_critical gives up the last 4 W.
      EXPECT_EQ(step.caps.job_host_caps[0],
                (std::vector<double>{kFloor, kFloor}));
      EXPECT_NEAR(step.caps.job_host_caps[1][0], 248.0, 1e-9);
      EXPECT_NEAR(step.caps.job_host_caps[1][1], 248.0, 1e-9);
      EXPECT_NEAR(step.shed_watts, 100.0, 1e-9);
    }
  }
  EXPECT_EQ(invariants::stats().violations, 0u);
}

TEST_F(RmStepTest, ClampTakesFloorsAndClassesFromTheContext) {
  const rm::PowerAllocation over = cpu({{200.0, 200.0}, {250.0, 250.0}});
  const rm::PowerAllocation clamped = clamp_to_budget(
      context_for(over, 800.0,
                  {SlaClass::kBestEffort, SlaClass::kLatencyCritical}),
      over);
  EXPECT_EQ(clamped.job_host_caps[0], (std::vector<double>{kFloor, kFloor}));
  EXPECT_NEAR(clamped.job_host_caps[1][0], 248.0, 1e-9);
  EXPECT_NEAR(clamped.job_host_caps[1][1], 248.0, 1e-9);
  // Far below the floors every limit lands on its own domain's floor.
  const rm::PowerAllocation floored =
      clamp_to_budget(context_for(cpu_gpu(), 100.0, {}), cpu_gpu());
  EXPECT_EQ(floored.job_host_caps[0], (std::vector<double>{kFloor, kFloor}));
  EXPECT_EQ(floored.job_host_gpu_caps[0],
            (std::vector<double>{kGpuFloor, kGpuFloor}));
}

std::vector<hw::NodeModel*> hosts_of(sim::Cluster& cluster,
                                     std::size_t begin, std::size_t count) {
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = begin; i < begin + count; ++i) {
    hosts.push_back(&cluster.node(i));
  }
  return hosts;
}

TEST_F(RmStepTest, EmergencyClampProgramsClampedCaps) {
  sim::Cluster cluster(4);
  sim::JobSimulation job_a("a", hosts_of(cluster, 0, 2),
                           kernel::WorkloadConfig{});
  sim::JobSimulation job_b("b", hosts_of(cluster, 2, 2),
                           kernel::WorkloadConfig{});
  const std::vector<sim::JobSimulation*> jobs = {&job_a, &job_b};
  rm::SystemPowerManager manager(800.0);
  const rm::PowerAllocation allocation = cpu({{190.0, 200.0}, {180.0, 210.0}});
  manager.apply(jobs, allocation);
  // A brownout to just above the settable floors, so the proportional
  // scale (not the floor fallback) decides the caps.
  double floors = 0.0;
  for (const auto* job : jobs) {
    for (std::size_t h = 0; h < job->host_count(); ++h) {
      floors += job->host(h).min_cap();
    }
  }
  const double brownout = floors + 40.0;
  ASSERT_LT(brownout, allocation.total_watts());
  ASSERT_TRUE(manager.set_budget(brownout, 1));

  PolicyContext context = context_for(allocation, brownout, {});
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    context.jobs[j].min_settable_cap_watts = jobs[j]->host(0).min_cap();
  }
  const RmStepResult step =
      rm_step(FixedPolicy(allocation, true), context,
              rm::SystemPowerManager::total_allocated_watts(jobs), true);
  ASSERT_EQ(step.outcome, RmOutcome::kClamped);
  manager.apply(jobs, step.caps, /*enforce_budget=*/false);
  EXPECT_NEAR(step.caps.total_watts(), brownout, 1e-9);
  // The programmed caps track the clamped allocation (RAPL quantization
  // slack only).
  EXPECT_NEAR(rm::SystemPowerManager::total_allocated_watts(jobs),
              step.caps.total_watts(), 0.5 * 4);
  for (std::size_t j = 0; j < step.caps.job_host_caps.size(); ++j) {
    for (std::size_t h = 0; h < step.caps.job_host_caps[j].size(); ++h) {
      EXPECT_GE(step.caps.job_host_caps[j][h],
                jobs[j]->host(h).min_cap() - 1e-9);
    }
  }
}

TEST_F(RmStepTest, LaunchShareSplitsByTdpRatio) {
  const LaunchCaps cpu_only = split_launch_share(195.0, 256.0, 0.0);
  EXPECT_EQ(cpu_only.cpu_watts, 195.0);
  EXPECT_EQ(cpu_only.gpu_watts, 0.0);
  const LaunchCaps hetero = split_launch_share(400.0, 256.0, 768.0);
  EXPECT_EQ(hetero.cpu_watts, 100.0);
  EXPECT_EQ(hetero.gpu_watts, 300.0);
}

}  // namespace
}  // namespace ps::core
