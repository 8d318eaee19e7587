#include "util/args.hpp"

#include <charconv>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ps::util {

namespace {
/// Parses all of `text` as a T, or throws InvalidArgument naming the
/// option. from_chars takes no leading whitespace or '+', and a '-' only
/// for signed and floating types, so a negative count never wraps.
template <typename T>
T parse_whole(std::string_view name, std::string_view text,
              const char* kind) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    throw InvalidArgument("option '" + std::string(name) + "' is not " +
                          kind + ": '" + std::string(text) + "'");
  }
  return value;
}
}  // namespace

std::size_t parse_count(std::string_view name, std::string_view text) {
  return parse_whole<std::size_t>(name, text, "a count");
}

double parse_number(std::string_view name, std::string_view text) {
  return parse_whole<double>(name, text, "a number");
}

ArgParser& ArgParser::add_flag(std::string name, std::string help) {
  PS_REQUIRE(starts_with(name, "--"), "option names start with --");
  PS_REQUIRE(specs_.find(name) == specs_.end(), "duplicate option");
  specs_.emplace(std::move(name), Spec{true, "", std::move(help)});
  return *this;
}

ArgParser& ArgParser::add_option(std::string name, std::string default_value,
                                 std::string help) {
  PS_REQUIRE(starts_with(name, "--"), "option names start with --");
  PS_REQUIRE(specs_.find(name) == specs_.end(), "duplicate option");
  specs_.emplace(std::move(name),
                 Spec{false, std::move(default_value), std::move(help)});
  return *this;
}

const ArgParser::Spec& ArgParser::spec_of(std::string_view name) const {
  const auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw InvalidArgument("unknown option '" + std::string(name) + "'");
  }
  return it->second;
}

void ArgParser::parse(int argc, const char* const* argv) {
  values_.clear();
  positional_.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    const Spec& spec = spec_of(arg);
    if (spec.is_flag) {
      values_[std::string(arg)] = "true";
      continue;
    }
    PS_REQUIRE(i + 1 < argc,
               "option '" + std::string(arg) + "' needs a value");
    values_[std::string(arg)] = argv[++i];
  }
}

bool ArgParser::provided(std::string_view name) const {
  static_cast<void>(spec_of(name));  // unknown names still throw
  return values_.find(name) != values_.end();
}

bool ArgParser::flag(std::string_view name) const {
  const Spec& spec = spec_of(name);
  PS_REQUIRE(spec.is_flag, "'" + std::string(name) + "' is not a flag");
  return values_.find(name) != values_.end();
}

const std::string& ArgParser::option(std::string_view name) const {
  const Spec& spec = spec_of(name);
  PS_REQUIRE(!spec.is_flag,
             "'" + std::string(name) + "' is a flag, not an option");
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : spec.default_value;
}

double ArgParser::option_double(std::string_view name) const {
  return parse_number(name, option(name));
}

std::size_t ArgParser::option_size(std::string_view name) const {
  return parse_count(name, option(name));
}

std::string ArgParser::help() const {
  std::ostringstream out;
  for (const auto& [name, spec] : specs_) {
    out << "  " << name;
    if (!spec.is_flag) {
      out << " <value=" << spec.default_value << ">";
    }
    out << "  " << spec.help << '\n';
  }
  return out.str();
}

}  // namespace ps::util
