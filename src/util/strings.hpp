#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/error.hpp"

namespace ps::util {

/// Splits on a single-character delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             char delimiter);

/// Joins pieces with a separator.
[[nodiscard]] std::string join(std::span<const std::string> pieces,
                               std::string_view separator);

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

[[nodiscard]] bool starts_with(std::string_view text,
                               std::string_view prefix) noexcept;

/// Case-insensitive ASCII comparison.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Formats watts with an SI prefix when large ("167.0 kW", "214.0 W").
[[nodiscard]] std::string format_watts(double watts, int precision = 1);

/// Formats seconds as "1.23 s" / "12.3 ms" as appropriate.
[[nodiscard]] std::string format_seconds(double seconds, int precision = 2);

// ---- The one text codec -------------------------------------------
// What a number is, what a field line is, and how both are written, for
// the wire, the snapshot, HA, the CSVs, workload names and the command
// line. `read_*` return false on a malformed token; `parse_*` throw
// ps::InvalidArgument naming the field or option. The per-value helpers
// are inline: they are on the rack codec's hot path and the build has no
// link-time optimisation.

/// The number grammar: all of `token` parses by std::from_chars (no
/// whitespace, '+', base prefix, trailing text or overflow; a '-' only
/// for floating types, so a negative count never wraps).
template <typename T>
[[nodiscard]] inline bool read_whole(std::string_view token,
                                     T& value) noexcept {
  const char* const end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  return error == std::errc{} && stop == end;
}

/// read_whole for a finite double: `nan` and `inf` are malformed.
[[nodiscard]] inline bool read_finite(std::string_view token,
                                      double& value) noexcept {
  return read_whole(token, value) && std::isfinite(value);
}

/// read_finite for a value that is not negative (watts, hours, a share).
[[nodiscard]] inline bool read_non_negative(std::string_view token,
                                            double& value) noexcept {
  return read_finite(token, value) && value >= 0.0;
}

/// An unsigned field; "non-numeric <what> field" otherwise.
[[nodiscard]] inline std::uint64_t parse_u64(std::string_view token,
                                             std::string_view what) {
  std::uint64_t value = 0;
  PS_REQUIRE(read_whole(token, value),
             "non-numeric " + std::string(what) + " field");
  return value;
}

/// A finite field; "non-numeric <what> field" otherwise.
[[nodiscard]] inline double parse_finite(std::string_view token,
                                         std::string_view what) {
  double value = 0.0;
  PS_REQUIRE(read_finite(token, value),
             "non-numeric " + std::string(what) + " field");
  return value;
}

/// A watt field: read_non_negative, with one message per failure.
[[nodiscard]] inline double parse_watts(std::string_view token,
                                        std::string_view what) {
  double value = 0.0;
  PS_REQUIRE(read_whole(token, value),
             "non-numeric " + std::string(what) + " field");
  PS_REQUIRE(std::isfinite(value), std::string(what) + " must be finite");
  PS_REQUIRE(value >= 0.0, std::string(what) + " must be non-negative");
  return value;
}

/// Command-line operands: a count (read_whole), a number (read_finite)
/// or a non-negative number; "option '<option>' is not a count: '<text>'"
/// and the like otherwise.
[[nodiscard]] std::size_t parse_count(std::string_view option,
                                      std::string_view text);
[[nodiscard]] double parse_number(std::string_view option,
                                  std::string_view text);
[[nodiscard]] double parse_non_negative(std::string_view option,
                                        std::string_view text);

/// Calls `visit` on every line of `text` that holds more than whitespace.
template <typename Visit>
inline void for_each_non_empty_line(std::string_view text, Visit visit) {
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    const std::string_view line = text.substr(start, end - start);
    if (!trim(line).empty()) {
      visit(line);
    }
    start = end + 1;
  }
}

/// The non-empty lines of `text`, as views into it.
[[nodiscard]] std::vector<std::string_view> non_empty_lines(
    std::string_view text);

/// The watt fields of `text` split on single spaces; a run of spaces
/// leaves empty tokens, which are skipped.
[[nodiscard]] inline std::vector<double> parse_watts_list(
    std::string_view text, std::string_view what) {
  std::vector<double> values;
  while (!text.empty()) {
    const std::size_t space = std::min(text.find(' '), text.size());
    if (space > 0) {
      values.push_back(parse_watts(text.substr(0, space), what));
    }
    text.remove_prefix(std::min(space + 1, text.size()));
  }
  return values;
}

/// The reject message of a missing field line.
[[nodiscard]] inline std::string expected_line(std::string_view key) {
  return "expected '" + std::string(key) + "' line";
}

/// Snapshot and HA fields: the trimmed text after `prefix` (which carries
/// its separator, "budget ") on a line that must start with it.
[[nodiscard]] inline std::string_view expect_field(std::string_view line,
                                                   std::string_view prefix) {
  PS_REQUIRE(starts_with(line, prefix), expected_line(prefix));
  return trim(line.substr(prefix.size()));
}

/// Wire fields: the trimmed text after `key` and one space.
[[nodiscard]] inline std::string_view keyed_value(std::string_view line,
                                                  std::string_view key) {
  PS_REQUIRE(line.size() > key.size() && line[key.size()] == ' ' &&
                 starts_with(line, key),
             expected_line(key));
  return trim(line.substr(key.size() + 1));
}

/// A wire `key N` line: one space, then an untrimmed, non-empty u64.
[[nodiscard]] inline std::uint64_t keyed_u64(std::string_view line,
                                             std::string_view key) {
  PS_REQUIRE(line.size() > key.size() + 1 && line[key.size()] == ' ' &&
                 starts_with(line, key),
             expected_line(key));
  return parse_u64(line.substr(key.size() + 1), key);
}

/// A wire `key w` line (keyed_value, then parse_watts).
[[nodiscard]] inline double keyed_watts(std::string_view line,
                                        std::string_view key) {
  return parse_watts(keyed_value(line, key), key);
}

/// Appends the line `key N`.
inline void append_uint(std::string& out, std::string_view key,
                        std::uint64_t value) {
  char buffer[24];
  char* const end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  out.append(key).append(" ").append(buffer, end) += '\n';
}

/// Appends the line `key w1 w2 ...`, each watt the shortest decimal that
/// reads back as the same double, bit for bit.
inline void append_watts(std::string& out, std::string_view key,
                         std::span<const double> values) {
  out += key;
  for (const double value : values) {
    char buffer[32];
    const auto [ptr, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    PS_REQUIRE(ec == std::errc{}, "unencodable watt value");
    out += ' ';
    out.append(buffer, ptr);
  }
  out += '\n';
}

}  // namespace ps::util
