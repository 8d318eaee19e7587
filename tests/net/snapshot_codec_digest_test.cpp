// Pins the snapshot and HA replication codecs bit for bit. Seeded daemon
// snapshots (v1 through v4, CPU-only and mixed GPU with bare `gpu_caps`
// lines, non-zero fences, full-precision and exact-tie caps, zero and
// UINT64_MAX counters) and seeded HA sync, update, heartbeat and ack
// messages are serialized, and the bytes are digested. A seeded mutation
// corpus of those texts (truncation, dropped, duplicated or swapped
// lines, flipped digits, blank and whitespace-only lines, `\r` endings,
// stray spaces, wrong counts, hostile number tokens, stale checksums) is
// then parsed, and every verdict, every parsed field's bit pattern and
// every reject message is digested. A snapshot mutant is re-checksummed
// unless the mutation targets the checksum itself, so the corpus reaches
// the parser behind the CRC. A rewrite of either codec must leave all
// three digests unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ha/replication.hpp"
#include "net/framing.hpp"
#include "net/snapshot.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ps::net {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

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

void digest(Fnv& fnv, const DaemonSnapshot& s) {
  fnv.f64(s.system_budget_watts);
  fnv.u64(s.budget_epoch);
  fnv.u64(s.fence_epoch);
  fnv.u64(s.launch_barrier_met ? 1 : 0);
  fnv.u64(s.allocations);
  fnv.u64(s.jobs.size());
  for (const SnapshotJob& job : s.jobs) {
    fnv.str(job.name);
    fnv.u64(job.sequence);
    fnv.vec(job.caps_watts);
    fnv.vec(job.gpu_caps_watts);
  }
}

/// A watt value: mostly a full-precision draw, sometimes one whose
/// rendering is an edge case (zero, an integer, exact binary ties at the
/// third decimal, huge, tiny).
double watts(util::Rng& rng) {
  static constexpr double kEdges[] = {0.0,    152.0,  1e-7,     0.0005,
                                      0.0625, 1.1875, 123.4565, 255.9995,
                                      1e21,   1e300,  2.5e-3,   80.125,
                                      1e-300};
  if (rng.uniform_index(4) == 0) {
    return kEdges[rng.uniform_index(std::size(kEdges))];
  }
  return rng.uniform(0.0, 300.0);
}

/// A counter: zero, UINT64_MAX or a small draw.
std::uint64_t counter(util::Rng& rng) {
  switch (rng.uniform_index(4)) {
    case 0:
      return 0;
    case 1:
      return kMax;
    default:
      return rng.uniform_index(1000);
  }
}

/// Shapes: 0 = CPU-only (v2), 1 = mixed GPU (v3), 2 = fenced (v4), and
/// 3 = a v2 body rewritten in the v1 grammar (no budget_epoch line).
enum Shape { kCpu, kMixedGpu, kFenced, kLegacy };

DaemonSnapshot random_snapshot(util::Rng& rng, Shape shape) {
  DaemonSnapshot snapshot;
  snapshot.system_budget_watts =
      rng.uniform_index(3) == 0 ? 2880.0 : rng.uniform(1.0, 1e6);
  snapshot.budget_epoch = shape == kLegacy ? 0 : counter(rng);
  if (shape == kFenced) {
    snapshot.fence_epoch = rng.uniform_index(2) == 0 ? kMax
                                                     : 1 + counter(rng) % 50;
  }
  snapshot.launch_barrier_met = rng.uniform_index(2) == 1;
  snapshot.allocations = counter(rng);
  // A mixed cluster needs a GPU job to serialize as v3.
  const std::size_t jobs = (shape == kMixedGpu ? 1 : 0) + rng.uniform_index(6);
  for (std::size_t j = 0; j < jobs; ++j) {
    SnapshotJob job;
    job.name = "job-" + std::to_string(10 + j) + "-" +
               std::to_string(rng.uniform_index(1000));
    job.sequence = counter(rng);
    const std::size_t hosts = 1 + rng.uniform_index(4);
    for (std::size_t h = 0; h < hosts; ++h) {
      job.caps_watts.push_back(watts(rng));
    }
    // Mixed clusters keep some single-domain jobs (bare gpu_caps lines).
    const bool gpu = (shape == kMixedGpu && (j == 0 || rng.uniform_index(2))) ||
                     (shape == kFenced && rng.uniform_index(2) == 0);
    if (gpu) {
      for (std::size_t h = 0; h < hosts; ++h) {
        job.gpu_caps_watts.push_back(watts(rng));
      }
    }
    snapshot.jobs.push_back(std::move(job));
  }
  return snapshot;
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

/// `body` followed by its checksum line, as the snapshot writer ends it.
std::string with_checksum(const std::string& body) {
  char line[32];
  std::snprintf(line, sizeof(line), "checksum %08x\n", crc32(body));
  return body + line;
}

/// A serialized snapshot's lines without its checksum line.
std::vector<std::string> body_lines(const std::string& text) {
  std::vector<std::string> lines = split_lines(text);
  lines.pop_back();
  return lines;
}

/// The v1 form of a v2 snapshot text: the v1 header and no budget_epoch.
std::string to_v1(const std::string& v2) {
  std::vector<std::string> lines = body_lines(v2);
  lines[0] = "powerstack-snapshot v1";
  lines.erase(lines.begin() + 2);
  return with_checksum(join_lines(lines));
}

enum class Kind { kSnapshot, kSync, kUpdate, kHeartbeat, kAck };

struct Text {
  Kind kind;
  std::string text;
};

constexpr std::size_t kSnapshotsPerShape = 8;
constexpr std::size_t kHaMessagesPerKind = 6;

/// Every serialized text, in a fixed order: the snapshots of each shape,
/// then the HA messages (an update embeds a snapshot of each shape).
std::vector<Text> corpus() {
  util::Rng rng(20210);
  std::vector<Text> texts;
  for (const Shape shape : {kCpu, kMixedGpu, kFenced, kLegacy}) {
    for (std::size_t s = 0; s < kSnapshotsPerShape; ++s) {
      const std::string text = serialize(random_snapshot(rng, shape));
      texts.push_back({Kind::kSnapshot, shape == kLegacy ? to_v1(text) : text});
    }
  }
  for (std::size_t m = 0; m < kHaMessagesPerKind; ++m) {
    texts.push_back({Kind::kSync, ha::serialize(ha::HaSyncRequest{
                                      counter(rng)})});
    ha::HaStateUpdate update;
    update.state = random_snapshot(rng, static_cast<Shape>(m % 3));
    update.fence_epoch = update.state.fence_epoch;
    update.rounds = update.state.allocations;
    texts.push_back({Kind::kUpdate, ha::serialize(update)});
    texts.push_back({Kind::kHeartbeat, ha::serialize(ha::HaHeartbeat{
                                           counter(rng), counter(rng)})});
    texts.push_back({Kind::kAck, ha::serialize(ha::HaAck{counter(rng)})});
  }
  return texts;
}

/// A number token no field should accept, or one at a field's edge.
std::string hostile_token(util::Rng& rng) {
  static constexpr const char* kTokens[] = {
      "nan",  "inf", "-inf", "-1",   "+5",   "1e999", "0x10", "1.5.2",
      "12abc", "",   "-0",   "1e-400", "18446744073709551616",
      "18446744073709551615", "0", "1"};
  return kTokens[rng.uniform_index(std::size(kTokens))];
}

/// Replaces the token after the first space of `line` (or appends one).
std::string replace_value(const std::string& line, const std::string& token) {
  const std::size_t space = line.find(' ');
  if (space == std::string::npos) {
    return line + ' ' + token;
  }
  const std::size_t end = line.find(' ', space + 1);
  return line.substr(0, space + 1) + token +
         (end == std::string::npos ? "" : line.substr(end));
}

/// Replaces the count after the first space of `line` by count + delta.
std::string shift_count(const std::string& line, int delta) {
  const std::size_t space = line.find(' ');
  const long long count = std::stoll(line.substr(space + 1)) + delta;
  return line.substr(0, space + 1) + std::to_string(count);
}

constexpr int kLineMutations = 15;

/// One seeded line-level mutant of `lines` (mutations 0..14).
void mutate_lines(std::vector<std::string>& lines, util::Rng& rng) {
  const std::size_t at = rng.uniform_index(lines.size());
  switch (static_cast<int>(rng.uniform_index(kLineMutations))) {
    case 0:  // a dropped line
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:  // a duplicated line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[at]);
      break;
    case 2:  // two adjacent lines swapped
      if (at + 1 < lines.size()) {
        std::swap(lines[at], lines[at + 1]);
      }
      break;
    case 3: {  // a flipped digit
      std::string& line = lines[at];
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] >= '0' && line[i] <= '9') {
          digits.push_back(i);
        }
      }
      if (!digits.empty()) {
        char& digit = line[digits[rng.uniform_index(digits.size())]];
        digit = static_cast<char>(
            '0' +
            (digit - '0' + 1 + static_cast<int>(rng.uniform_index(9))) % 10);
      }
      break;
    }
    case 4:  // an inserted blank line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), "");
      break;
    case 5:  // an inserted whitespace-only line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), " \t ");
      break;
    case 6:  // one \r-terminated line
      lines[at] += '\r';
      break;
    case 7:  // a leading space
      lines[at].insert(0, " ");
      break;
    case 8:  // a trailing space
      lines[at] += ' ';
      break;
    case 9: {  // a doubled separator
      const std::size_t space = lines[at].find(' ');
      if (space != std::string::npos) {
        lines[at].insert(space, " ");
      }
      break;
    }
    case 10:  // a tab for the separator
      if (const std::size_t space = lines[at].find(' ');
          space != std::string::npos) {
        lines[at][space] = '\t';
      }
      break;
    case 11:  // a trailing garbage line
      lines.push_back("garbage 1");
      break;
    case 12:  // a hostile number token
      lines[at] = replace_value(lines[at], hostile_token(rng));
      break;
    case 13:  // a bare key: the line loses everything after its key
      lines[at] = lines[at].substr(0, lines[at].find(' '));
      break;
    default:  // a changed header version
      lines[0] = lines[0].substr(0, lines[0].size() - 1) +
                 std::to_string(1 + rng.uniform_index(5));
      break;
  }
}

/// One seeded mutant of a snapshot text. Mostly a re-checksummed body
/// mutation (so the parser behind the CRC sees it), often a hostile
/// number token; sometimes a wrong `jobs` count, a truncation, a stale
/// or damaged checksum, or `\r\n` endings throughout.
std::string mutate_snapshot(const std::string& text, util::Rng& rng) {
  std::vector<std::string> lines = body_lines(text);
  switch (rng.uniform_index(8)) {
    case 0:  // truncation at any byte
      return text.substr(0, rng.uniform_index(text.size()));
    case 1: {  // a body mutation under the stale checksum
      mutate_lines(lines, rng);
      return join_lines(lines) + split_lines(text).back() + '\n';
    }
    case 2: {  // a damaged checksum line
      std::vector<std::string> all = split_lines(text);
      all.back() = replace_value(all.back(), hostile_token(rng));
      return join_lines(all);
    }
    case 3: {  // \r\n endings throughout
      std::string crlf;
      for (const std::string& line : split_lines(text)) {
        crlf += line;
        crlf += "\r\n";
      }
      return crlf;
    }
    case 4: {  // a wrong job count, re-checksummed
      for (std::string& line : lines) {
        if (line.rfind("jobs ", 0) == 0) {
          line = shift_count(line, rng.uniform_index(2) ? 1 : -1);
        }
      }
      return with_checksum(join_lines(lines));
    }
    case 5: {  // a hostile number token, re-checksummed
      std::string& line = lines[rng.uniform_index(lines.size())];
      line = replace_value(line, hostile_token(rng));
      return with_checksum(join_lines(lines));
    }
    default:
      mutate_lines(lines, rng);
      return with_checksum(join_lines(lines));
  }
}

/// One seeded mutant of an HA message. An update's embedded snapshot is
/// mutated as a snapshot half of the time; otherwise the message's own
/// lines are.
std::string mutate_ha(const Text& message, util::Rng& rng) {
  if (message.kind == Kind::kUpdate && rng.uniform_index(2) == 0) {
    const std::size_t state = message.text.find("state\n") + 6;
    return message.text.substr(0, state) +
           mutate_snapshot(message.text.substr(state), rng);
  }
  if (rng.uniform_index(6) == 0) {  // truncation at any byte
    return message.text.substr(0, rng.uniform_index(message.text.size()));
  }
  std::vector<std::string> lines = split_lines(message.text);
  if (message.kind == Kind::kUpdate) {
    lines.resize(4);  // the update's own lines: header, fence, rounds, state
    mutate_lines(lines, rng);
    return join_lines(lines) +
           message.text.substr(message.text.find("state\n") + 6);
  }
  mutate_lines(lines, rng);
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

/// Parses `text` with its kind's parser, digests every parsed field and
/// returns the parsed message serialized again.
std::string parse_into(Kind kind, const std::string& text, Fnv& fnv) {
  switch (kind) {
    case Kind::kSnapshot: {
      const DaemonSnapshot snapshot = parse_snapshot(text);
      digest(fnv, snapshot);
      return serialize(snapshot);
    }
    case Kind::kSync: {
      const ha::HaSyncRequest message = ha::parse_sync_request(text);
      fnv.u64(message.fence_epoch);
      return ha::serialize(message);
    }
    case Kind::kUpdate: {
      const ha::HaStateUpdate message = ha::parse_state_update(text);
      fnv.u64(message.fence_epoch);
      fnv.u64(message.rounds);
      digest(fnv, message.state);
      return ha::serialize(message);
    }
    case Kind::kHeartbeat: {
      const ha::HaHeartbeat message = ha::parse_heartbeat(text);
      fnv.u64(message.fence_epoch);
      fnv.u64(message.rounds);
      return ha::serialize(message);
    }
    case Kind::kAck: {
      const ha::HaAck message = ha::parse_ack(text);
      fnv.u64(message.rounds);
      return ha::serialize(message);
    }
  }
  return {};
}

struct Verdicts {
  std::uint64_t outcomes = 0;  ///< Verdicts plus parsed fields.
  std::uint64_t messages = 0;  ///< Reject messages.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

constexpr std::size_t kSnapshotMutants = 48;
constexpr std::size_t kHaMutants = 24;

Verdicts parse_corpus() {
  util::Rng rng(16);
  Fnv outcomes;
  Fnv messages;
  Verdicts verdicts;
  for (const Text& original : corpus()) {
    std::vector<std::string> texts = {original.text};
    const bool snapshot = original.kind == Kind::kSnapshot;
    for (std::size_t m = 0; m < (snapshot ? kSnapshotMutants : kHaMutants);
         ++m) {
      texts.push_back(snapshot ? mutate_snapshot(original.text, rng)
                               : mutate_ha(original, rng));
    }
    for (const std::string& text : texts) {
      Fnv fields;
      try {
        static_cast<void>(parse_into(original.kind, text, fields));
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

TEST(SnapshotCodecDigestTest, SerializedBytesArePinned) {
  Fnv bytes;
  std::size_t total = 0;
  for (const Text& text : corpus()) {
    bytes.str(text.text);
    total += text.text.size();
  }
  EXPECT_EQ(bytes.value(), 17787453404294109453ULL) << total << " bytes";
}

TEST(SnapshotCodecDigestTest, EveryUnmutatedTextRoundTrips) {
  // Parsing and serializing again gives back the very bytes; a v1 text
  // comes back in the v2 grammar the writer emits.
  for (const Text& text : corpus()) {
    Fnv fields;
    std::string again;
    ASSERT_NO_THROW(again = parse_into(text.kind, text.text, fields))
        << text.text;
    if (text.text.rfind("powerstack-snapshot v1\n", 0) == 0) {
      EXPECT_EQ(to_v1(again), text.text);
    } else {
      EXPECT_EQ(again, text.text);
    }
  }
}

TEST(SnapshotCodecDigestTest, MutantVerdictsArePinned) {
  const Verdicts verdicts = parse_corpus();
  EXPECT_EQ(verdicts.accepted, 392u);
  EXPECT_EQ(verdicts.rejected, 1776u);
  EXPECT_EQ(verdicts.outcomes, 11427091313289053273ULL);
  EXPECT_EQ(verdicts.messages, 1392297764483762942ULL);
}

}  // namespace
}  // namespace ps::net
