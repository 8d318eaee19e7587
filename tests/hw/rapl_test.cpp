#include "hw/rapl.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace ps::hw {
namespace {

constexpr double kTdp = 120.0;
constexpr double kMin = 68.0;

TEST(RaplTest, InitialLimitIsTdp) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_DOUBLE_EQ(rapl.power_limit(), kTdp);
}

TEST(RaplTest, UnitsMatchBroadwellEncoding) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_DOUBLE_EQ(rapl.power_unit_watts(), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(rapl.energy_unit_joules(), 1.0 / 16384.0);
}

TEST(RaplTest, SetLimitQuantizesToPowerUnits) {
  RaplPackageDomain rapl(kTdp, kMin);
  const double applied = rapl.set_power_limit(100.07);
  // Nearest 1/8 W step.
  EXPECT_DOUBLE_EQ(applied, 100.125);
  EXPECT_DOUBLE_EQ(rapl.power_limit(), 100.125);
}

TEST(RaplTest, LimitClampsToFirmwareRange) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_DOUBLE_EQ(rapl.set_power_limit(10.0), kMin);
  EXPECT_DOUBLE_EQ(rapl.set_power_limit(1000.0), 1.5 * kTdp);
}

TEST(RaplTest, RejectsNonFiniteLimit) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_THROW(static_cast<void>(rapl.set_power_limit(
                   std::numeric_limits<double>::quiet_NaN())),
               ps::InvalidArgument);
}

TEST(RaplTest, RejectsBadConstruction) {
  EXPECT_THROW(RaplPackageDomain(0.0, 1.0), ps::InvalidArgument);
  EXPECT_THROW(RaplPackageDomain(100.0, 0.0), ps::InvalidArgument);
  EXPECT_THROW(RaplPackageDomain(100.0, 120.0), ps::InvalidArgument);
}

TEST(RaplTest, EnergyAccumulatesThroughCounter) {
  RaplPackageDomain rapl(kTdp, kMin);
  rapl.accumulate_energy(100.0);
  EXPECT_NEAR(rapl.read_energy_joules(), 100.0, 1e-3);
  rapl.accumulate_energy(50.0);
  EXPECT_NEAR(rapl.read_energy_joules(), 150.0, 1e-3);
}

TEST(RaplTest, SubUnitEnergyIsNotLost) {
  RaplPackageDomain rapl(kTdp, kMin);
  // Each increment is far below one counter LSB (61 uJ).
  for (int i = 0; i < 100000; ++i) {
    rapl.accumulate_energy(1e-5);
  }
  EXPECT_NEAR(rapl.read_energy_joules(), 1.0, 1e-3);
}

TEST(RaplTest, CounterWrapsAt32Bits) {
  RaplPackageDomain rapl(kTdp, kMin);
  // 2^32 energy units is ~262 kJ; accumulate more than that.
  const double wrap_joules =
      4294967296.0 * rapl.energy_unit_joules();
  rapl.accumulate_energy(wrap_joules * 0.75);
  EXPECT_NEAR(rapl.read_energy_joules(), wrap_joules * 0.75, 1.0);
  rapl.accumulate_energy(wrap_joules * 0.5);  // wraps the raw counter
  // Software reconstruction across the wrap stays monotone.
  EXPECT_NEAR(rapl.read_energy_joules(), wrap_joules * 1.25, 1.0);
}

TEST(RaplTest, NegativeEnergyRejected) {
  RaplPackageDomain rapl(kTdp, kMin);
  EXPECT_THROW(rapl.accumulate_energy(-1.0), ps::InvalidArgument);
}

TEST(RaplTest, PowerInfoEncodesTdpAndMin) {
  RaplPackageDomain rapl(kTdp, kMin);
  const std::uint64_t info = rapl.msr_file().read(msr::kPkgPowerInfo);
  const double unit = rapl.power_unit_watts();
  EXPECT_DOUBLE_EQ(static_cast<double>(info & 0x7fff) * unit, kTdp);
  EXPECT_DOUBLE_EQ(static_cast<double>((info >> 16) & 0x7fff) * unit, kMin);
}

TEST(RaplTest, LimitSurvivesMsrRoundTrip) {
  RaplPackageDomain rapl(kTdp, kMin);
  rapl.set_power_limit(90.0);
  const std::uint64_t raw = rapl.msr_file().read(msr::kPkgPowerLimit);
  EXPECT_EQ(raw & 0x7fffULL,
            static_cast<std::uint64_t>(90.0 / rapl.power_unit_watts()));
  EXPECT_NE(raw & (1ULL << 15), 0u);  // enable bit
  EXPECT_NE(raw & (1ULL << 16), 0u);  // clamp bit
}

TEST(RaplTest, CopyIsIndependentOfSource) {
  RaplPackageDomain source(kTdp, kMin);
  source.set_power_limit(90.0);
  source.accumulate_energy(10.0);
  RaplPackageDomain copy = source;
  copy.set_power_limit(100.0);
  copy.accumulate_energy(5.0);
  EXPECT_DOUBLE_EQ(source.power_limit(), 90.0);
  EXPECT_NEAR(source.read_energy_joules(), 10.0, 1e-3);
  EXPECT_DOUBLE_EQ(copy.power_limit(), 100.0);
  EXPECT_NEAR(copy.read_energy_joules(), 15.0, 1e-3);
}

TEST(RaplTest, PowerLimitReflectsOutOfBandWrite) {
  RaplPackageDomain rapl(kTdp, kMin);
  // Software (PlatformIO) programs the register directly: 80 W in 1/8 W
  // units, enable and clamp bits set.
  rapl.msr_file().write(msr::kPkgPowerLimit,
                        (80ULL * 8) | (1ULL << 15) | (1ULL << 16));
  EXPECT_DOUBLE_EQ(rapl.power_limit(), 80.0);
}

TEST(RaplTest, SmallAccumulationsAcrossWrapMatchReference) {
  RaplPackageDomain rapl(kTdp, kMin);
  const double unit = rapl.energy_unit_joules();
  // Reference model of the package: the same fixed-point formula, kept
  // outside the register file.
  double fractional = 0.0;
  std::uint32_t counter = 0;
  std::uint32_t last_counter = 0;
  double unwrapped = 0.0;
  const auto accumulate = [&](double joules) {
    rapl.accumulate_energy(joules);
    fractional += joules / unit;
    const double whole = std::floor(fractional);
    fractional -= whole;
    counter += static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(whole) & 0xffffffffULL);
  };
  const auto read_reference = [&] {
    const std::uint32_t delta = counter - last_counter;
    last_counter = counter;
    unwrapped += static_cast<double>(delta) * unit;
    return unwrapped;
  };

  // Park the counter 1 J below the 32-bit wrap.
  accumulate(4294967296.0 * unit - 1.0);
  ASSERT_EQ(rapl.read_energy_joules(), read_reference());
  bool wrapped = false;
  for (int i = 1; i <= 100000; ++i) {
    const std::uint32_t before = counter;
    accumulate(3e-5);
    wrapped = wrapped || counter < before;
    if (i % 1000 == 0) {
      ASSERT_EQ(rapl.read_energy_counter(), counter) << "call " << i;
      ASSERT_EQ(rapl.read_energy_joules(), read_reference()) << "call " << i;
    }
  }
  EXPECT_TRUE(wrapped);
}

}  // namespace
}  // namespace ps::hw
