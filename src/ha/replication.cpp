#include "ha/replication.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ps::ha {

namespace {

constexpr std::string_view kSyncHeader = "powerstack-ha-sync v1";
constexpr std::string_view kUpdateHeader = "powerstack-ha-update v1";
constexpr std::string_view kHeartbeatHeader = "powerstack-ha-heartbeat v1";
constexpr std::string_view kAckHeader = "powerstack-ha-ack v1";

/// Consumes one '\n'-terminated line from `payload` starting at `pos`.
std::string_view take_line(std::string_view payload, std::size_t& pos,
                           std::string_view what) {
  const std::size_t end = payload.find('\n', pos);
  PS_REQUIRE(end != std::string_view::npos,
             "truncated " + std::string(what) + " message");
  const std::string_view line = payload.substr(pos, end - pos);
  pos = end + 1;
  return line;
}

}  // namespace

HaMessageKind ha_message_kind(std::string_view payload) {
  const std::size_t eol = payload.find('\n');
  const std::string_view first =
      eol == std::string_view::npos ? payload : payload.substr(0, eol);
  if (first == kSyncHeader) {
    return HaMessageKind::kSync;
  }
  if (first == kUpdateHeader) {
    return HaMessageKind::kUpdate;
  }
  if (first == kHeartbeatHeader) {
    return HaMessageKind::kHeartbeat;
  }
  if (first == kAckHeader) {
    return HaMessageKind::kAck;
  }
  return HaMessageKind::kUnknown;
}

std::string serialize(const HaSyncRequest& message) {
  std::string out = std::string(kSyncHeader) + '\n';
  util::append_uint(out, "fence", message.fence_epoch);
  return out;
}

std::string serialize(const HaStateUpdate& message) {
  std::string out = std::string(kUpdateHeader) + '\n';
  util::append_uint(out, "fence", message.fence_epoch);
  util::append_uint(out, "rounds", message.rounds);
  out += "state\n";
  out += net::serialize(message.state);
  return out;
}

std::string serialize(const HaHeartbeat& message) {
  std::string out = std::string(kHeartbeatHeader) + '\n';
  util::append_uint(out, "fence", message.fence_epoch);
  util::append_uint(out, "rounds", message.rounds);
  return out;
}

std::string serialize(const HaAck& message) {
  std::string out = std::string(kAckHeader) + '\n';
  util::append_uint(out, "rounds", message.rounds);
  return out;
}

HaSyncRequest parse_sync_request(std::string_view payload) {
  std::size_t pos = 0;
  PS_REQUIRE(take_line(payload, pos, "ha sync") == kSyncHeader,
             "not a ha sync request");
  HaSyncRequest message;
  message.fence_epoch = util::parse_u64(
      util::expect_field(take_line(payload, pos, "ha sync"), "fence "),
      "fence");
  PS_REQUIRE(pos == payload.size(), "unexpected trailing ha sync bytes");
  return message;
}

HaStateUpdate parse_state_update(std::string_view payload) {
  std::size_t pos = 0;
  PS_REQUIRE(take_line(payload, pos, "ha update") == kUpdateHeader,
             "not a ha state update");
  HaStateUpdate message;
  message.fence_epoch = util::parse_u64(
      util::expect_field(take_line(payload, pos, "ha update"), "fence "),
      "fence");
  message.rounds = util::parse_u64(
      util::expect_field(take_line(payload, pos, "ha update"), "rounds "),
      "rounds");
  PS_REQUIRE(take_line(payload, pos, "ha update") == "state",
             "expected 'state' marker line");
  // The remainder is a complete snapshot serialization; its own checksum
  // line guards the state bytes end to end.
  message.state = net::parse_snapshot(payload.substr(pos));
  PS_REQUIRE(message.state.fence_epoch == message.fence_epoch,
             "ha update fence disagrees with its state");
  PS_REQUIRE(message.state.allocations == message.rounds,
             "ha update rounds disagree with its state");
  return message;
}

HaHeartbeat parse_heartbeat(std::string_view payload) {
  std::size_t pos = 0;
  PS_REQUIRE(take_line(payload, pos, "ha heartbeat") == kHeartbeatHeader,
             "not a ha heartbeat");
  HaHeartbeat message;
  message.fence_epoch = util::parse_u64(
      util::expect_field(take_line(payload, pos, "ha heartbeat"), "fence "),
      "fence");
  message.rounds = util::parse_u64(
      util::expect_field(take_line(payload, pos, "ha heartbeat"), "rounds "),
      "rounds");
  PS_REQUIRE(pos == payload.size(),
             "unexpected trailing ha heartbeat bytes");
  return message;
}

HaAck parse_ack(std::string_view payload) {
  std::size_t pos = 0;
  PS_REQUIRE(take_line(payload, pos, "ha ack") == kAckHeader,
             "not a ha ack");
  HaAck message;
  message.rounds = util::parse_u64(
      util::expect_field(take_line(payload, pos, "ha ack"), "rounds "),
      "rounds");
  PS_REQUIRE(pos == payload.size(), "unexpected trailing ha ack bytes");
  return message;
}

}  // namespace ps::ha
