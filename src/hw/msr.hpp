#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ps::hw {

/// Well-known MSR addresses used by the RAPL simulation (Intel SDM names).
namespace msr {
inline constexpr std::uint32_t kRaplPowerUnit = 0x606;
inline constexpr std::uint32_t kPkgPowerLimit = 0x610;
inline constexpr std::uint32_t kPkgEnergyStatus = 0x611;
inline constexpr std::uint32_t kPkgPowerInfo = 0x614;
}  // namespace msr

/// Access control entry mirroring msr-safe's allowlist semantics: a register
/// is readable if listed, and only the bits in `write_mask` are writable.
struct MsrAccessEntry {
  std::uint32_t address = 0;
  std::uint64_t write_mask = 0;
};

/// Parses an msr-safe-style allowlist:
///
///   # comment
///   0x606 0x0000000000000000   # MSR_RAPL_POWER_UNIT (read-only)
///   0x610 0x00FFFFFFFFFFFFFF   # MSR_PKG_POWER_LIMIT
///
/// One "address writemask" pair per line; blank lines and '#' comments are
/// ignored. Throws ps::InvalidArgument on malformed or duplicate entries.
[[nodiscard]] std::vector<MsrAccessEntry> parse_msr_allowlist(
    std::string_view text);

/// Simulated per-package MSR file with msr-safe-style access control.
///
/// This is the lowest layer of the hardware substitution: RAPL domains are
/// implemented on top of these registers exactly as the real driver stack
/// (msr-safe -> libmsr/GEOPM PlatformIO) layers on real MSRs, including the
/// 32-bit wrapping energy counter.
///
/// Registers sit in one flat slot array (allowlist order, then backdoor-only
/// addresses), scanned linearly: a package has only a handful.
class MsrFile {
 public:
  /// Constructs with the default allowlist (RAPL registers, as msr-safe
  /// ships for power management use).
  MsrFile();

  explicit MsrFile(const std::vector<MsrAccessEntry>& allowlist);

  /// Reads a 64-bit register. Throws ps::NotFound if not allowlisted.
  [[nodiscard]] std::uint64_t read(std::uint32_t address) const;

  /// Writes the writable bits of a register; non-writable bits of `value`
  /// are ignored (as msr-safe masks them). Throws ps::NotFound if the
  /// register is not allowlisted or has an empty write mask.
  void write(std::uint32_t address, std::uint64_t value);

  /// Backdoor used by the hardware model itself (not subject to the
  /// allowlist) — e.g. the package updating its own energy counter.
  void hw_store(std::uint32_t address, std::uint64_t value) {
    const std::size_t slot = slot_of(address);
    if (slot == registers_.size()) {
      registers_.push_back({address, false, 0, 0});
    }
    registers_[slot].value = value;
  }
  /// Unwritten registers read 0.
  [[nodiscard]] std::uint64_t hw_load(std::uint32_t address) const noexcept {
    const std::size_t slot = slot_of(address);
    return slot == registers_.size() ? 0 : registers_[slot].value;
  }

  [[nodiscard]] bool is_readable(std::uint32_t address) const noexcept;
  [[nodiscard]] bool is_writable(std::uint32_t address) const noexcept;

 private:
  struct Register {
    std::uint32_t address = 0;
    bool allowlisted = false;  ///< False for backdoor-only registers.
    std::uint64_t write_mask = 0;
    std::uint64_t value = 0;
  };

  /// Index of the slot holding `address`, or registers_.size().
  [[nodiscard]] std::size_t slot_of(std::uint32_t address) const noexcept {
    std::size_t slot = 0;
    while (slot < registers_.size() && registers_[slot].address != address) {
      ++slot;
    }
    return slot;
  }
  /// Index of the allowlisted slot holding `address`; throws ps::NotFound.
  [[nodiscard]] std::size_t allowlisted_slot(std::uint32_t address) const;

  std::vector<Register> registers_;
};

}  // namespace ps::hw
