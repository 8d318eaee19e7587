#include "util/strings.hpp"

#include <cctype>
#include <cmath>

#include "util/table.hpp"

namespace ps::util {

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string join(std::span<const std::string> pieces,
                 std::string_view separator) {
  std::string joined;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) {
      joined += separator;
    }
    joined += pieces[i];
  }
  return joined;
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string format_watts(double watts, int precision) {
  const double magnitude = std::abs(watts);
  if (magnitude >= 1e6) {
    return format_fixed(watts / 1e6, precision) + " MW";
  }
  if (magnitude >= 1e3) {
    return format_fixed(watts / 1e3, precision) + " kW";
  }
  return format_fixed(watts, precision) + " W";
}

std::string format_seconds(double seconds, int precision) {
  const double magnitude = std::abs(seconds);
  if (magnitude < 1.0 && magnitude > 0.0) {
    return format_fixed(seconds * 1e3, precision) + " ms";
  }
  return format_fixed(seconds, precision) + " s";
}

namespace {
template <typename T, typename Read>
T parse_operand(std::string_view option, std::string_view text,
                const char* kind, Read read) {
  T value{};
  if (!read(text, value)) {
    throw InvalidArgument("option '" + std::string(option) + "' is not " +
                          kind + ": '" + std::string(text) + "'");
  }
  return value;
}
}  // namespace

std::size_t parse_count(std::string_view option, std::string_view text) {
  return parse_operand<std::size_t>(option, text, "a count",
                                    read_whole<std::size_t>);
}

double parse_number(std::string_view option, std::string_view text) {
  return parse_operand<double>(option, text, "a number", read_finite);
}

double parse_non_negative(std::string_view option, std::string_view text) {
  return parse_operand<double>(option, text, "a non-negative number",
                               read_non_negative);
}

std::vector<std::string_view> non_empty_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  for_each_non_empty_line(
      text, [&lines](std::string_view line) { lines.push_back(line); });
  return lines;
}

}  // namespace ps::util
