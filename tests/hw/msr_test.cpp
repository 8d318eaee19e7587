#include "hw/msr.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ps::hw {
namespace {

TEST(MsrFileTest, DefaultAllowlistExposesRaplRegisters) {
  const MsrFile msrs;
  EXPECT_TRUE(msrs.is_readable(msr::kRaplPowerUnit));
  EXPECT_TRUE(msrs.is_readable(msr::kPkgPowerLimit));
  EXPECT_TRUE(msrs.is_readable(msr::kPkgEnergyStatus));
  EXPECT_TRUE(msrs.is_readable(msr::kPkgPowerInfo));
}

TEST(MsrFileTest, OnlyPowerLimitIsWritable) {
  const MsrFile msrs;
  EXPECT_TRUE(msrs.is_writable(msr::kPkgPowerLimit));
  EXPECT_FALSE(msrs.is_writable(msr::kRaplPowerUnit));
  EXPECT_FALSE(msrs.is_writable(msr::kPkgEnergyStatus));
  EXPECT_FALSE(msrs.is_writable(msr::kPkgPowerInfo));
}

TEST(MsrFileTest, ReadOfUnlistedRegisterThrows) {
  const MsrFile msrs;
  EXPECT_THROW(static_cast<void>(msrs.read(0x1a0)), NotFound);
}

TEST(MsrFileTest, WriteOfReadOnlyRegisterThrows) {
  MsrFile msrs;
  EXPECT_THROW(msrs.write(msr::kPkgEnergyStatus, 1), NotFound);
}

TEST(MsrFileTest, WriteOfUnlistedRegisterThrows) {
  MsrFile msrs;
  EXPECT_THROW(msrs.write(0x1a0, 1), NotFound);
}

TEST(MsrFileTest, WriteMaskProtectsReservedBits) {
  MsrFile msrs({{0x100, 0x00ffULL}});
  msrs.hw_store(0x100, 0xab00ULL);
  msrs.write(0x100, 0xffffULL);
  // Only the low byte is writable; the high byte keeps its value.
  EXPECT_EQ(msrs.read(0x100), 0xabffULL);
}

TEST(MsrFileTest, HwBackdoorBypassesAllowlist) {
  MsrFile msrs;
  msrs.hw_store(0x1a0, 0xdeadULL);
  EXPECT_EQ(msrs.hw_load(0x1a0), 0xdeadULL);
  // Still not software-readable.
  EXPECT_THROW(static_cast<void>(msrs.read(0x1a0)), NotFound);
}

TEST(MsrFileTest, UnwrittenRegisterReadsZero) {
  const MsrFile msrs;
  EXPECT_EQ(msrs.hw_load(msr::kPkgEnergyStatus), 0u);
  EXPECT_EQ(msrs.read(msr::kPkgPowerLimit), 0u);
  EXPECT_EQ(msrs.hw_load(0x1a0), 0u);
}

TEST(MsrFileTest, CopyIsIndependentOfSource) {
  MsrFile source;
  source.write(msr::kPkgPowerLimit, 0x123);
  source.hw_store(msr::kPkgEnergyStatus, 7);
  MsrFile copy = source;
  copy.write(msr::kPkgPowerLimit, 0x456);
  copy.hw_store(msr::kPkgEnergyStatus, 8);
  copy.hw_store(0x1a0, 9);
  EXPECT_EQ(source.read(msr::kPkgPowerLimit), 0x123u);
  EXPECT_EQ(source.read(msr::kPkgEnergyStatus), 7u);
  EXPECT_EQ(source.hw_load(0x1a0), 0u);
  EXPECT_EQ(copy.read(msr::kPkgPowerLimit), 0x456u);
  EXPECT_EQ(copy.read(msr::kPkgEnergyStatus), 8u);
  EXPECT_EQ(copy.hw_load(0x1a0), 9u);
}

TEST(MsrFileTest, CustomAllowlistBackdoorKeepsUnlistedRegistersHidden) {
  MsrFile msrs({{0x100, 0x00ffULL}});
  msrs.hw_store(0x200, 0xbeefULL);
  msrs.hw_store(0x200, 0xcafeULL);
  EXPECT_EQ(msrs.hw_load(0x200), 0xcafeULL);
  EXPECT_FALSE(msrs.is_readable(0x200));
  EXPECT_FALSE(msrs.is_writable(0x200));
  EXPECT_THROW(static_cast<void>(msrs.read(0x200)), NotFound);
  EXPECT_THROW(msrs.write(0x200, 1), NotFound);
  // The default RAPL registers are not on this list either.
  EXPECT_THROW(static_cast<void>(msrs.read(msr::kPkgPowerLimit)), NotFound);
  // The listed register is unaffected by the backdoor slot.
  msrs.write(0x100, 0x12);
  EXPECT_EQ(msrs.read(0x100), 0x12u);
  EXPECT_EQ(msrs.hw_load(0x200), 0xcafeULL);
}

}  // namespace
}  // namespace ps::hw
