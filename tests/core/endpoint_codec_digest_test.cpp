// Pins the endpoint codec bit for bit. Seeded rack-sample and rack-policy
// frames (v1 and v3 embedded messages, multi-host vectors, sla_class,
// budget_epoch and fence lines, both fidelities), the flat messages they
// embed and a few budget messages are serialized, and the bytes are
// digested. A seeded mutation corpus of those texts (truncation, dropped,
// duplicated or swapped lines and blocks, flipped digits, blank and
// whitespace-only lines, `\r` endings, wrong counts) is then parsed, and
// every verdict, every parsed field's bit pattern and every reject
// message is digested. A rewrite of the codec must leave all three
// digests unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/endpoint.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ps::core {
namespace {

/// FNV-1a, fed field by field; strings and vectors carry their length so
/// adjacent fields cannot trade bytes.
class Fnv {
 public:
  void bytes(std::string_view text) {
    for (const char c : text) {
      byte(static_cast<unsigned char>(c));
    }
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned>((value >> (8 * i)) & 0xffU));
    }
  }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void str(std::string_view text) {
    u64(text.size());
    bytes(text);
  }
  void vec(const std::vector<double>& values) {
    u64(values.size());
    for (const double value : values) {
      f64(value);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void byte(unsigned value) {
    hash_ ^= value;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void digest(Fnv& fnv, const SampleMessage& m) {
  fnv.u64(m.sequence);
  fnv.str(m.job_name);
  fnv.f64(m.min_settable_cap_watts);
  fnv.vec(m.host_observed_watts);
  fnv.vec(m.host_needed_watts);
  fnv.vec(m.host_gpu_observed_watts);
  fnv.vec(m.host_gpu_needed_watts);
  fnv.f64(m.gpu_min_cap_watts);
  fnv.f64(m.gpu_tdp_watts);
  fnv.u64(static_cast<std::uint64_t>(m.sla_class));
}

void digest(Fnv& fnv, const PolicyMessage& m) {
  fnv.u64(m.sequence);
  fnv.str(m.job_name);
  fnv.vec(m.host_caps_watts);
  fnv.vec(m.host_gpu_caps_watts);
  fnv.u64(m.budget_epoch);
  fnv.u64(m.fence_epoch);
}

void digest(Fnv& fnv, const BudgetMessage& m) {
  fnv.u64(m.epoch);
  fnv.f64(m.budget_watts);
  fnv.u64(m.emergency ? 1 : 0);
}

void digest(Fnv& fnv, const RackSampleMessage& m) {
  fnv.str(m.rack);
  fnv.u64(m.round);
  fnv.u64(m.samples.size());
  for (const SampleMessage& sample : m.samples) {
    digest(fnv, sample);
  }
}

void digest(Fnv& fnv, const RackPolicyMessage& m) {
  fnv.str(m.rack);
  fnv.u64(m.round);
  fnv.f64(m.rack_budget_watts);
  fnv.u64(m.policies.size());
  for (const PolicyMessage& policy : m.policies) {
    digest(fnv, policy);
  }
}

/// A watt value: mostly a full-precision draw, sometimes one whose
/// rendering is an edge case (zero, an integer, sub-milliwatt, half a
/// milliwatt, exact binary ties at the third decimal, huge, tiny).
double watts(util::Rng& rng) {
  static constexpr double kEdges[] = {0.0,    152.0,  1e-7,     0.0005,
                                      0.0625, 1.1875, 123.4565, 255.9995,
                                      1e21,   1e300,  2.5e-3,   80.125,
                                      1e-300};
  if (rng.uniform_index(5) == 0) {
    return kEdges[rng.uniform_index(std::size(kEdges))];
  }
  return rng.uniform(0.0, 300.0);
}

sim::SlaClass sla_class(util::Rng& rng) {
  static constexpr sim::SlaClass kClasses[] = {sim::SlaClass::kStandard,
                                               sim::SlaClass::kBestEffort,
                                               sim::SlaClass::kLatencyCritical};
  return kClasses[rng.uniform_index(std::size(kClasses))];
}

SampleMessage random_sample(util::Rng& rng, std::string name,
                            std::uint64_t sequence) {
  SampleMessage sample;
  sample.sequence = sequence;
  sample.job_name = std::move(name);
  sample.min_settable_cap_watts = watts(rng);
  const std::size_t hosts = 1 + rng.uniform_index(4);
  for (std::size_t h = 0; h < hosts; ++h) {
    sample.host_observed_watts.push_back(watts(rng));
    sample.host_needed_watts.push_back(watts(rng));
  }
  if (rng.uniform_index(3) == 0) {
    sample.gpu_min_cap_watts = rng.uniform(50.0, 150.0);
    sample.gpu_tdp_watts = rng.uniform(200.0, 400.0);
    for (std::size_t h = 0; h < hosts; ++h) {
      const bool idle = rng.uniform_index(4) == 0;
      sample.host_gpu_observed_watts.push_back(idle ? 0.0 : watts(rng));
      sample.host_gpu_needed_watts.push_back(idle ? 0.0 : watts(rng));
    }
  }
  sample.sla_class = sla_class(rng);
  return sample;
}

PolicyMessage random_policy(util::Rng& rng, std::string name,
                            std::uint64_t sequence) {
  PolicyMessage policy;
  policy.sequence = sequence;
  policy.job_name = std::move(name);
  const std::size_t hosts = 1 + rng.uniform_index(4);
  // The first cap is a real share, so every rack budget is positive.
  policy.host_caps_watts.push_back(rng.uniform(80.0, 256.0));
  for (std::size_t h = 1; h < hosts; ++h) {
    policy.host_caps_watts.push_back(watts(rng));
  }
  if (rng.uniform_index(3) == 0) {
    for (std::size_t h = 0; h < hosts; ++h) {
      policy.host_gpu_caps_watts.push_back(watts(rng));
    }
  }
  policy.budget_epoch =
      rng.uniform_index(2) == 0 ? 0 : 1 + rng.uniform_index(50);
  policy.fence_epoch =
      rng.uniform_index(3) == 0 ? 1 + rng.uniform_index(9) : 0;
  return policy;
}

/// `count` unique job names in name order.
std::vector<std::string> job_names(util::Rng& rng, std::size_t count) {
  std::vector<std::string> names;
  for (std::size_t j = 0; j < count; ++j) {
    names.push_back("job-" + std::to_string(10 + j) + "-" +
                    std::to_string(rng.uniform_index(1000)));
  }
  return names;
}

RackSampleMessage random_rack_sample(util::Rng& rng, std::size_t index) {
  RackSampleMessage rack;
  rack.rack = "r" + std::to_string(index);
  for (std::string& name : job_names(rng, 1 + rng.uniform_index(6))) {
    rack.samples.push_back(
        random_sample(rng, std::move(name), rng.uniform_index(100)));
    rack.round = std::max(rack.round, rack.samples.back().sequence);
  }
  return rack;
}

RackPolicyMessage random_rack_policy(util::Rng& rng, std::size_t index) {
  RackPolicyMessage rack;
  rack.rack = "r" + std::to_string(index);
  for (std::string& name : job_names(rng, 1 + rng.uniform_index(6))) {
    rack.policies.push_back(
        random_policy(rng, std::move(name), rng.uniform_index(100)));
    const PolicyMessage& policy = rack.policies.back();
    rack.round = std::max(rack.round, policy.sequence);
    for (const double cap : policy.host_caps_watts) {
      rack.rack_budget_watts += cap;
    }
    for (const double cap : policy.host_gpu_caps_watts) {
      rack.rack_budget_watts += cap;
    }
  }
  return rack;
}

enum class Kind { kSample, kPolicy, kBudget, kRackSample, kRackPolicy };

struct WireText {
  Kind kind;
  WireFidelity fidelity;
  std::string text;
};

constexpr std::size_t kRackFrames = 16;
constexpr std::size_t kBudgetMessages = 8;

/// Every serialized text, in a fixed order: each rack frame and then its
/// embedded messages, at both fidelities, then the budget messages.
std::vector<WireText> corpus() {
  util::Rng rng(20211);
  std::vector<WireText> texts;
  for (const WireFidelity fidelity :
       {WireFidelity::kExact, WireFidelity::kDisplay}) {
    for (std::size_t r = 0; r < kRackFrames; ++r) {
      const RackSampleMessage samples = random_rack_sample(rng, r);
      texts.push_back(
          {Kind::kRackSample, fidelity, serialize(samples, fidelity)});
      for (const SampleMessage& sample : samples.samples) {
        texts.push_back(
            {Kind::kSample, fidelity, serialize(sample, fidelity)});
      }
      const RackPolicyMessage policies = random_rack_policy(rng, r);
      texts.push_back(
          {Kind::kRackPolicy, fidelity, serialize(policies, fidelity)});
      for (const PolicyMessage& policy : policies.policies) {
        texts.push_back(
            {Kind::kPolicy, fidelity, serialize(policy, fidelity)});
      }
    }
    for (std::size_t b = 0; b < kBudgetMessages; ++b) {
      BudgetMessage budget;
      budget.epoch = 1 + rng.uniform_index(1000);
      budget.budget_watts = rng.uniform(1.0, 1e6);
      budget.emergency = rng.uniform_index(2) == 1;
      texts.push_back(
          {Kind::kBudget, fidelity, serialize(budget, fidelity)});
    }
  }
  return texts;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

/// [first, last) line ranges of a well-formed rack frame's blocks, each
/// including its `sample N` / `policy N` prefix line.
std::vector<std::pair<std::size_t, std::size_t>> blocks(
    const std::vector<std::string>& lines, Kind kind) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t next = kind == Kind::kRackSample ? 4 : 5;
  while (next < lines.size()) {
    const std::size_t count =
        std::stoul(lines[next].substr(lines[next].find(' ') + 1));
    ranges.emplace_back(next, next + 1 + count);
    next += 1 + count;
  }
  return ranges;
}

/// Replaces the count after the first space of `line` by count + delta.
std::string shift_count(const std::string& line, int delta) {
  const std::size_t space = line.find(' ');
  const long count = std::stol(line.substr(space + 1)) + delta;
  return line.substr(0, space + 1) + std::to_string(count);
}

constexpr int kLineMutations = 13;
constexpr int kBlockMutations = 5;

/// One seeded mutant of a well-formed text. Mutations 0..12 act on bytes
/// and lines; 13..17 act on a rack frame's counts and blocks.
std::string mutate(const WireText& wire, util::Rng& rng) {
  const bool rack =
      wire.kind == Kind::kRackSample || wire.kind == Kind::kRackPolicy;
  const int choices = kLineMutations + (rack ? kBlockMutations : 0);
  const int mutation = static_cast<int>(rng.uniform_index(choices));
  std::vector<std::string> lines = split_lines(wire.text);
  const std::size_t at = rng.uniform_index(lines.size());
  switch (mutation) {
    case 0:  // truncation at any byte
      return wire.text.substr(0, rng.uniform_index(wire.text.size()));
    case 1:  // a dropped line
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 2:  // a duplicated line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[at]);
      break;
    case 3:  // two adjacent lines swapped
      if (at + 1 < lines.size()) {
        std::swap(lines[at], lines[at + 1]);
      }
      break;
    case 4: {  // a flipped digit
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < wire.text.size(); ++i) {
        if (wire.text[i] >= '0' && wire.text[i] <= '9') {
          digits.push_back(i);
        }
      }
      std::string text = wire.text;
      char& digit = text[digits[rng.uniform_index(digits.size())]];
      digit = static_cast<char>(
          '0' + (digit - '0' + 1 + static_cast<int>(rng.uniform_index(9))) %
                    10);
      return text;
    }
    case 5:  // an inserted blank line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), "");
      break;
    case 6:  // an inserted whitespace-only line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), " \t ");
      break;
    case 7: {  // \r\n endings throughout
      std::string text;
      for (const std::string& line : lines) {
        text += line;
        text += "\r\n";
      }
      return text;
    }
    case 8:  // one \r-terminated line
      lines[at] += '\r';
      break;
    case 9:  // a leading space
      lines[at].insert(0, " ");
      break;
    case 10:  // a trailing space
      lines[at] += ' ';
      break;
    case 11: {  // a doubled separator
      const std::size_t space = lines[at].find(' ');
      if (space != std::string::npos) {
        lines[at].insert(space, " ");
      }
      break;
    }
    case 12:  // a trailing garbage line
      lines.push_back("garbage 1");
      break;
    default: {
      const Kind kind = wire.kind;
      const std::size_t jobs_line = kind == Kind::kRackSample ? 3 : 4;
      auto ranges = blocks(lines, kind);
      const std::size_t b = rng.uniform_index(ranges.size());
      const auto [first, last] = ranges[b];
      std::vector<std::string> block(lines.begin() + first,
                                     lines.begin() + last);
      switch (mutation - kLineMutations) {
        case 0:  // a wrong job count
          lines[jobs_line] =
              shift_count(lines[jobs_line], rng.uniform_index(2) ? 1 : -1);
          break;
        case 1:  // a wrong block line count
          lines[first] =
              shift_count(lines[first], rng.uniform_index(2) ? 1 : -1);
          break;
        case 2:  // a duplicated block, with or without a matching job count
          lines.insert(lines.begin() + last, block.begin(), block.end());
          if (rng.uniform_index(2) == 1) {
            lines[jobs_line] = shift_count(lines[jobs_line], 1);
          }
          break;
        case 3:  // two blocks swapped
          if (ranges.size() > 1) {
            const std::size_t c = (b + 1) % ranges.size();
            const auto [lo, hi] = std::minmax(b, c);
            std::vector<std::string> swapped(lines.begin(),
                                             lines.begin() + ranges[lo].first);
            swapped.insert(swapped.end(), lines.begin() + ranges[hi].first,
                           lines.begin() + ranges[hi].second);
            swapped.insert(swapped.end(), lines.begin() + ranges[lo].second,
                           lines.begin() + ranges[hi].first);
            swapped.insert(swapped.end(), lines.begin() + ranges[lo].first,
                           lines.begin() + ranges[lo].second);
            swapped.insert(swapped.end(), lines.begin() + ranges[hi].second,
                           lines.end());
            lines = std::move(swapped);
          }
          break;
        default:  // a dropped block with the job count kept in step
          lines.erase(lines.begin() + first, lines.begin() + last);
          lines[jobs_line] = shift_count(lines[jobs_line], -1);
          break;
      }
      break;
    }
  }
  return join_lines(lines);
}

/// The contract message of a rejection: the text between PS_REQUIRE's
/// "invalid argument: " prefix and its " [expression] at file:line"
/// suffix, so that the digest holds across edits that move code.
std::string_view reject_message(std::string_view what) {
  constexpr std::string_view kPrefix = "invalid argument: ";
  if (what.substr(0, kPrefix.size()) != kPrefix) {
    return what;
  }
  what.remove_prefix(kPrefix.size());
  return what.substr(0, what.find(" ["));
}

struct Verdicts {
  std::uint64_t outcomes = 0;  ///< Verdicts plus parsed fields.
  std::uint64_t messages = 0;  ///< Reject messages.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Parses `wire` with its kind's parser, digests every parsed field and
/// returns the parsed message serialized again at the text's fidelity.
std::string parse_into(const WireText& wire, Fnv& fnv) {
  switch (wire.kind) {
    case Kind::kSample: {
      const SampleMessage message = parse_sample_message(wire.text);
      digest(fnv, message);
      return serialize(message, wire.fidelity);
    }
    case Kind::kPolicy: {
      const PolicyMessage message = parse_policy_message(wire.text);
      digest(fnv, message);
      return serialize(message, wire.fidelity);
    }
    case Kind::kBudget: {
      const BudgetMessage message = parse_budget_message(wire.text);
      digest(fnv, message);
      return serialize(message, wire.fidelity);
    }
    case Kind::kRackSample: {
      const RackSampleMessage message = parse_rack_sample_message(wire.text);
      digest(fnv, message);
      return serialize(message, wire.fidelity);
    }
    case Kind::kRackPolicy: {
      const RackPolicyMessage message = parse_rack_policy_message(wire.text);
      digest(fnv, message);
      return serialize(message, wire.fidelity);
    }
  }
  return {};
}

constexpr std::size_t kRackMutants = 48;
constexpr std::size_t kFlatMutants = 12;

Verdicts parse_corpus() {
  util::Rng rng(7);
  Fnv outcomes;
  Fnv messages;
  Verdicts verdicts;
  for (const WireText& original : corpus()) {
    const bool rack = original.kind == Kind::kRackSample ||
                      original.kind == Kind::kRackPolicy;
    std::vector<WireText> texts = {original};
    for (std::size_t m = 0; m < (rack ? kRackMutants : kFlatMutants); ++m) {
      texts.push_back(
          {original.kind, original.fidelity, mutate(original, rng)});
    }
    for (const WireText& wire : texts) {
      Fnv fields;
      try {
        static_cast<void>(parse_into(wire, fields));
      } catch (const InvalidArgument& error) {
        outcomes.u64(0);
        messages.str(reject_message(error.what()));
        ++verdicts.rejected;
        continue;
      }
      outcomes.u64(1);
      outcomes.u64(fields.value());
      ++verdicts.accepted;
    }
  }
  verdicts.outcomes = outcomes.value();
  verdicts.messages = messages.value();
  return verdicts;
}

TEST(EndpointCodecDigestTest, SerializedBytesArePinned) {
  Fnv bytes;
  std::size_t total = 0;
  for (const WireText& wire : corpus()) {
    bytes.str(wire.text);
    total += wire.text.size();
  }
  EXPECT_EQ(bytes.value(), 6011435315982603355ULL) << total << " bytes";
}

TEST(EndpointCodecDigestTest, EveryUnmutatedTextRoundTrips) {
  // Parsing and serializing again at the same fidelity gives back the
  // very bytes: exact watts survive bit for bit, and a display value
  // parses to the double that prints as the same milliwatt decimal.
  for (const WireText& wire : corpus()) {
    Fnv fields;
    std::string again;
    EXPECT_NO_THROW(again = parse_into(wire, fields)) << wire.text;
    EXPECT_EQ(again, wire.text);
  }
}

TEST(EndpointCodecDigestTest, MutantVerdictsArePinned) {
  const Verdicts verdicts = parse_corpus();
  EXPECT_EQ(verdicts.accepted, 2261u);
  EXPECT_EQ(verdicts.rejected, 4216u);
  EXPECT_EQ(verdicts.outcomes, 4697959822182939781ULL);
  EXPECT_EQ(verdicts.messages, 16601391520859544626ULL);
}

}  // namespace
}  // namespace ps::core
