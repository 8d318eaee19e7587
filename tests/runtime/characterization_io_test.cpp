#include "runtime/characterization_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/cluster.hpp"
#include "util/error.hpp"

namespace ps::runtime {
namespace {

JobCharacterization sample(double monitor0 = 214.0) {
  JobCharacterization data;
  data.host_count = 3;
  data.min_settable_cap_watts = 152.0;
  data.monitor.host_average_power_watts = {monitor0, 220.0, 228.0};
  data.monitor.max_host_power_watts = 228.0;
  data.monitor.min_host_power_watts = monitor0;
  data.balancer.host_needed_power_watts = {152.0, 190.0, 219.0};
  data.balancer.max_host_needed_watts = 219.0;
  data.balancer.min_host_needed_watts = 152.0;
  return data;
}

TEST(CharacterizationIoTest, WritesHeaderAndHostRows) {
  std::ostringstream out;
  write_characterization_csv(out, "jobA", sample());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("job,host,monitor_watts,needed_watts,min_cap_watts"),
            std::string::npos);
  EXPECT_NE(csv.find("jobA,0,214.000,152.000,152.000"), std::string::npos);
  EXPECT_NE(csv.find("jobA,2,228.000,219.000,152.000"), std::string::npos);
}

TEST(CharacterizationIoTest, StoreRoundTrips) {
  CharacterizationStore store;
  store.put("alpha", sample(209.0));
  store.put("beta", sample(214.0));
  std::ostringstream out;
  write_store_csv(out, store, {"alpha", "beta"});

  const CharacterizationStore loaded = read_store_csv(out.str());
  EXPECT_EQ(loaded.size(), 2u);
  const JobCharacterization& alpha = loaded.get("alpha");
  EXPECT_EQ(alpha.host_count, 3u);
  EXPECT_NEAR(alpha.monitor.host_average_power_watts[0], 209.0, 1e-3);
  EXPECT_NEAR(alpha.balancer.host_needed_power_watts[2], 219.0, 1e-3);
  EXPECT_NEAR(alpha.min_settable_cap_watts, 152.0, 1e-3);
  // Aggregates recomputed on load.
  EXPECT_NEAR(alpha.monitor.max_host_power_watts, 228.0, 1e-3);
  EXPECT_NEAR(alpha.balancer.min_host_needed_watts, 152.0, 1e-3);
  EXPECT_NEAR(alpha.total_needed_power(), 152.0 + 190.0 + 219.0, 1e-2);
}

TEST(CharacterizationIoTest, RealCharacterizationRoundTrips) {
  sim::Cluster cluster(3);
  kernel::WorkloadConfig config;
  config.intensity = 8.0;
  sim::JobSimulation job("real", {&cluster.node(0), &cluster.node(1),
                                  &cluster.node(2)}, config);
  const JobCharacterization original = characterize_job(job, 3);
  std::ostringstream out;
  write_characterization_csv(out, "real", original);
  const CharacterizationStore loaded = read_store_csv(out.str());
  const JobCharacterization& parsed = loaded.get("real");
  for (std::size_t h = 0; h < 3; ++h) {
    EXPECT_NEAR(parsed.monitor.host_average_power_watts[h],
                original.monitor.host_average_power_watts[h], 0.01);
    EXPECT_NEAR(parsed.balancer.host_needed_power_watts[h],
                original.balancer.host_needed_power_watts[h], 0.01);
  }
}

TEST(CharacterizationIoTest, MalformedRowsRejected) {
  EXPECT_THROW(static_cast<void>(read_store_csv("a,b,c\n")),
               ps::InvalidArgument);
  EXPECT_THROW(
      static_cast<void>(read_store_csv("jobA,0,not_a_number,1,2\n")),
      ps::InvalidArgument);
  // Host numbering must be dense and ordered.
  EXPECT_THROW(static_cast<void>(
                   read_store_csv("jobA,1,214.0,152.0,152.0\n")),
               ps::InvalidArgument);
}

TEST(CharacterizationIoTest, NumbersFailClosedNamingTheLine) {
  // Every field is one whole token: a host is a count, and each watt
  // field is finite and not negative.
  for (const char* row :
       {"jobA,0,200.5abc,152.0,152.0", "jobA,0,nan,152.0,152.0",
        "jobA,0,214.0,inf,152.0", "jobA, 0,214.0,152.0,152.0",
        "jobA,0,214.0, 0,152.0", "jobA,0x0,214.0,152.0,152.0",
        "jobA,0,214.0,152.0,-152.0"}) {
    const std::string csv =
        "job,host,monitor_watts,needed_watts,min_cap_watts\n" +
        std::string(row) + "\n";
    try {
      static_cast<void>(read_store_csv(csv));
      ADD_FAILURE() << "accepted '" << row << "'";
    } catch (const ps::InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find("line 2 "), std::string::npos)
          << error.what();
    }
  }
}

TEST(CharacterizationIoTest, EmptyInputGivesEmptyStore) {
  EXPECT_EQ(read_store_csv("").size(), 0u);
}

}  // namespace
}  // namespace ps::runtime
