#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ps::util {

/// Minimal command-line parser for the benches, tools, and examples:
/// long options only (`--name value` or boolean `--flag`), declared up
/// front, with typed accessors and defaults. Unknown options throw
/// rather than being silently ignored.
class ArgParser {
 public:
  ArgParser& add_flag(std::string name, std::string help);
  ArgParser& add_option(std::string name, std::string default_value,
                        std::string help);

  /// Parses argv (skipping argv[0]). Throws ps::InvalidArgument for
  /// unknown options or missing values. Non-option arguments are kept in
  /// order and available via positional().
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool flag(std::string_view name) const;
  /// True if the declared flag/option appeared explicitly on the command
  /// line (option() falls back to the default otherwise).
  [[nodiscard]] bool provided(std::string_view name) const;
  [[nodiscard]] const std::string& option(std::string_view name) const;
  [[nodiscard]] double option_double(std::string_view name) const;
  [[nodiscard]] std::size_t option_size(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// One line per declared option, for usage text.
  [[nodiscard]] std::string help() const;

 private:
  struct Spec {
    bool is_flag = false;
    std::string default_value;
    std::string help;
  };
  const Spec& spec_of(std::string_view name) const;

  std::map<std::string, Spec, std::less<>> specs_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

}  // namespace ps::util
