#include "kernel/workload.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ps::kernel {
namespace {

TEST(WorkloadTest, DefaultConfigIsValid) {
  const WorkloadConfig config;
  EXPECT_NO_THROW(config.validate());
}

TEST(WorkloadTest, NameEncodesAllFields) {
  WorkloadConfig config;
  config.intensity = 8.0;
  config.vector_width = hw::VectorWidth::kYmm256;
  config.waiting_fraction = 0.5;
  config.imbalance = 2.0;
  EXPECT_EQ(config.name(), "ymm-i8-w50-x2");
}

TEST(WorkloadTest, NameRendersFractionalIntensity) {
  WorkloadConfig config;
  config.intensity = 0.25;
  config.vector_width = hw::VectorWidth::kXmm128;
  EXPECT_EQ(config.name(), "xmm-i0.25-w0-x1");
}

TEST(WorkloadTest, DescriptionMatchesTableTwoWording) {
  WorkloadConfig config;
  config.intensity = 16.0;
  config.waiting_fraction = 0.75;
  config.imbalance = 3.0;
  EXPECT_EQ(config.description(),
            "16 FLOPs/byte, 75% waiting ranks, 3x imbalance, ymm");
  WorkloadConfig balanced;
  balanced.intensity = 32.0;
  EXPECT_EQ(balanced.description(), "32 FLOPs/byte, no waiting ranks, ymm");
}

TEST(WorkloadTest, CriticalGigabytesScalesWithImbalance) {
  WorkloadConfig config;
  config.gigabytes_per_iteration = 2.0;
  config.imbalance = 3.0;
  config.waiting_fraction = 0.5;
  EXPECT_DOUBLE_EQ(critical_gigabytes(config), 6.0);
}

TEST(WorkloadTest, InvalidFieldsRejected) {
  WorkloadConfig config;
  config.intensity = -1.0;
  EXPECT_THROW(config.validate(), ps::InvalidArgument);
  config = {};
  config.waiting_fraction = 1.0;
  EXPECT_THROW(config.validate(), ps::InvalidArgument);
  config = {};
  config.imbalance = 0.5;
  EXPECT_THROW(config.validate(), ps::InvalidArgument);
  config = {};
  config.gigabytes_per_iteration = 0.0;
  EXPECT_THROW(config.validate(), ps::InvalidArgument);
}

TEST(WorkloadTest, EqualityComparesAllFields) {
  WorkloadConfig a;
  WorkloadConfig b;
  EXPECT_EQ(a, b);
  b.intensity = 2.0;
  EXPECT_NE(a, b);
}

TEST(ParseWorkloadTest, RoundTripsNames) {
  const WorkloadConfig configs[] = {
      [] {
        WorkloadConfig c;
        c.intensity = 8.0;
        c.waiting_fraction = 0.5;
        c.imbalance = 2.0;
        return c;
      }(),
      [] {
        WorkloadConfig c;
        c.intensity = 0.25;
        c.vector_width = hw::VectorWidth::kXmm128;
        return c;
      }(),
      [] {
        WorkloadConfig c;
        c.intensity = 0.0;
        c.vector_width = hw::VectorWidth::kScalar;
        return c;
      }(),
  };
  for (const WorkloadConfig& config : configs) {
    const WorkloadConfig parsed = parse_workload(config.name());
    EXPECT_EQ(parsed, config) << config.name();
  }
}

TEST(ParseWorkloadTest, ParsesExplicitName) {
  const WorkloadConfig config = parse_workload("ymm-i16-w75-x3");
  EXPECT_DOUBLE_EQ(config.intensity, 16.0);
  EXPECT_DOUBLE_EQ(config.waiting_fraction, 0.75);
  EXPECT_DOUBLE_EQ(config.imbalance, 3.0);
  EXPECT_EQ(config.vector_width, hw::VectorWidth::kYmm256);
}

TEST(ParseWorkloadTest, RejectsMalformedNames) {
  EXPECT_THROW(static_cast<void>(parse_workload("")), ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_workload("ymm-i8-w50")),
               ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_workload("zmm-i8-w50-x2")),
               ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_workload("ymm-8-w50-x2")),
               ps::InvalidArgument);
  EXPECT_THROW(static_cast<void>(parse_workload("ymm-iq-w50-x2")),
               ps::InvalidArgument);
  // Each number is one whole token: no trailing garbage, no inner space,
  // no base prefix, nothing infinite.
  for (const char* name : {"ymm-i8abc-w50-x2", "ymm-i 8-w50-x2",
                           "ymm-i0x8-w50-x2", "ymm-iinf-w50-x2"}) {
    EXPECT_THROW(static_cast<void>(parse_workload(name)),
                 ps::InvalidArgument)
        << name;
  }
  // Validation still applies: waiting fraction must stay below 1.
  EXPECT_THROW(static_cast<void>(parse_workload("ymm-i8-w100-x2")),
               ps::InvalidArgument);
}

}  // namespace
}  // namespace ps::kernel
