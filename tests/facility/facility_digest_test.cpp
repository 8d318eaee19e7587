// Pins the facility's RM-step outcomes bit for bit: completed jobs,
// emergency clamps, the per-step budget in force and the watts the
// degradation and clamp passes shed, for a MixedAdaptive brownout run, a
// budget-unaware Precharacterized run under a governor envelope tight
// enough to clamp, and the class-ordered clamp on a mixed-SLA run. A
// refactor of the RM step must leave every figure unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/invariants.hpp"
#include "facility/facility_manager.hpp"
#include "sim/cluster.hpp"
#include "util/rng.hpp"

namespace ps::facility {
namespace {

constexpr std::size_t kNodes = 16;
constexpr double kNominalWatts = 200.0 * kNodes;

/// FNV-1a over the bit patterns of a series: equal digests mean equal
/// bits, step for step.
std::uint64_t digest(const std::vector<double>& series) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double value : series) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

struct DigestCase {
  const char* name;
  core::PolicyKind policy;
  double latency_critical_fraction;
  double best_effort_fraction;
  std::size_t completed_jobs;
  std::size_t emergency_clamps;
  std::size_t budget_revisions;
  std::uint64_t budget_digest;
  std::uint64_t power_digest;
  double shed_watts;
};

FacilityResult run_case(const DigestCase& c) {
  JobTraceOptions traffic;
  traffic.horizon_hours = 24.0;
  traffic.arrivals_per_hour = 2.0;
  traffic.min_nodes = 2;
  traffic.max_nodes = 6;
  traffic.min_duration_hours = 0.2;
  traffic.max_duration_hours = 2.0;
  traffic.latency_critical_fraction = c.latency_critical_fraction;
  traffic.best_effort_fraction = c.best_effort_fraction;
  util::Rng rng(23);
  const std::vector<FacilityJobSpec> trace = generate_job_trace(rng, traffic);

  sim::Cluster cluster(kNodes);
  FacilityOptions options;
  options.step_hours = 0.25;
  options.horizon_hours = 36.0;
  options.system_budget_watts = kNominalWatts;
  options.policy = c.policy;
  options.characterization_iterations = 2;
  // A brownout: nominal for 30 steps, a deep drop for 30, then a
  // partial recovery the signal holds to the horizon.
  const double floor = kNodes * cluster.node(0).min_cap();
  options.budget_signal_watts.assign(30, kNominalWatts);
  options.budget_signal_watts.insert(options.budget_signal_watts.end(), 30,
                                     floor + 40.0);
  options.budget_signal_watts.push_back(0.9 * kNominalWatts);
  options.governor.floor_watts = floor;
  FacilityManager manager(cluster, options);
  return manager.run(trace);
}

class FacilityDigestTest : public ::testing::TestWithParam<DigestCase> {
 protected:
  void SetUp() override {
    previous_mode_ = core::invariants::mode();
    core::invariants::set_mode(core::invariants::Mode::kFatal);
    core::invariants::reset();
  }
  void TearDown() override {
    core::invariants::reset();
    core::invariants::set_mode(previous_mode_);
  }

  core::invariants::Mode previous_mode_ = core::invariants::Mode::kCount;
};

TEST_P(FacilityDigestTest, RmStepOutcomesArePinned) {
  const DigestCase& c = GetParam();
  const FacilityResult result = run_case(c);
  EXPECT_EQ(result.completed_jobs, c.completed_jobs);
  EXPECT_EQ(result.emergency_clamps, c.emergency_clamps);
  EXPECT_EQ(result.budget_revisions, c.budget_revisions);
  EXPECT_EQ(digest(result.budget_watts), c.budget_digest);
  // The facility draw per step follows the programmed caps.
  EXPECT_EQ(digest(result.power_watts), c.power_digest);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.shed_watts_total),
            std::bit_cast<std::uint64_t>(c.shed_watts))
      << result.shed_watts_total;
  EXPECT_EQ(core::invariants::stats().violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Brownout, FacilityDigestTest,
    ::testing::Values(
        DigestCase{"MixedAdaptive", core::PolicyKind::kMixedAdaptive, 0.0,
                   0.0, 30, 0, 2, 5589796550774968101ULL,
                   7841214123437093653ULL, 0x0p+0},
        DigestCase{"MixedAdaptiveMixedSla", core::PolicyKind::kMixedAdaptive,
                   0.2, 0.3, 40, 0, 2, 5589796550774968101ULL,
                   855488116680506801ULL, 0x1.200000000002bp+7},
        DigestCase{"Precharacterized", core::PolicyKind::kPrecharacterized,
                   0.0, 0.0, 30, 1, 2, 5589796550774968101ULL,
                   2610521201133199806ULL, 0x1.885190a6746d4p+8},
        DigestCase{"PrecharacterizedMixedSla",
                   core::PolicyKind::kPrecharacterized, 0.3, 0.3, 40, 3, 2,
                   5589796550774968101ULL, 7290866249941433080ULL,
                   0x1.aa3092abc01ap+12}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ps::facility
