// Regression coverage for the disconnect-during-batched-write audit: a
// session that dies while the round's coalesced frames are being flushed
// must have its watts reclaimed exactly once — not zero times (a leak
// that starves every later round) and not twice (a phantom surplus the
// next allocation would overspend). Also covers the rack-session variant
// of the same audit: evicting one job bound through a rack session must
// unbind that job without closing the rack session the surviving jobs
// still depend on, and closing a rack session must put exactly that
// rack's remaining jobs into grace.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/endpoint.hpp"
#include "net/daemon.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace ps::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::string unique_path(const std::string& tag) {
  return "/tmp/ps-batch-" + tag + "-" + std::to_string(::getpid()) + ".sock";
}

/// Server-side decorator that watches the inbound bytes for a marker job
/// name; once the marker has been seen and the shared kill switch is on,
/// every write to that peer reports a closed pipe. This is exactly the
/// shape of the production failure: the peer died between the allocation
/// computing its caps and the batch flush writing them.
class VictimTransport final : public Transport {
 public:
  VictimTransport(std::unique_ptr<Transport> inner, std::string marker,
                  std::atomic<bool>& fail_writes)
      : inner_(std::move(inner)),
        marker_(std::move(marker)),
        fail_writes_(fail_writes) {}

  [[nodiscard]] int fd() const noexcept override { return inner_->fd(); }
  [[nodiscard]] bool valid() const noexcept override {
    return inner_->valid();
  }
  void close() noexcept override { inner_->close(); }

  IoResult read_some(char* out, std::size_t max_bytes) override {
    const IoResult result = inner_->read_some(out, max_bytes);
    if (result.status == IoStatus::kOk && !is_victim_) {
      seen_.append(out, result.bytes);
      if (seen_.find(marker_) != std::string::npos) {
        is_victim_ = true;
        seen_.clear();
      }
    }
    return result;
  }

  IoResult write_some(std::string_view bytes) override {
    if (is_victim_ && fail_writes_.load(std::memory_order_acquire)) {
      return {IoStatus::kClosed, 0};
    }
    return inner_->write_some(bytes);
  }

  [[nodiscard]] bool wait_readable(milliseconds timeout) override {
    return inner_->wait_readable(timeout);
  }
  [[nodiscard]] bool wait_writable(milliseconds timeout) override {
    return inner_->wait_writable(timeout);
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::string marker_;
  std::atomic<bool>& fail_writes_;
  bool is_victim_ = false;
  std::string seen_;
};

/// Minimal scripted client: raw socket + frame codec, no RuntimeClient
/// retry machinery — the test controls every byte.
void send_payload(Socket& socket, const std::string& payload) {
  const std::string frame = encode_frame(payload);
  std::string_view rest = frame;
  while (!rest.empty()) {
    const IoResult result = socket.write_some(rest);
    if (result.status == IoStatus::kOk) {
      rest.remove_prefix(result.bytes);
      continue;
    }
    ASSERT_EQ(result.status, IoStatus::kWouldBlock) << "peer closed";
    ASSERT_TRUE(socket.wait_writable(milliseconds(2000)));
  }
}

std::optional<std::string> read_payload(Socket& socket, FrameDecoder& decoder,
                                        milliseconds timeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (true) {
    if (std::optional<std::string> frame = decoder.next()) {
      return frame;
    }
    const auto remaining = std::chrono::duration_cast<milliseconds>(
        deadline - steady_clock::now());
    if (remaining <= milliseconds(0) ||
        !socket.wait_readable(remaining)) {
      return std::nullopt;
    }
    char buffer[4096];
    const IoResult result = socket.read_some(buffer, sizeof(buffer));
    if (result.status == IoStatus::kClosed) {
      return std::nullopt;
    }
    if (result.status == IoStatus::kOk) {
      decoder.feed({buffer, result.bytes});
    }
  }
}

core::SampleMessage make_sample(const std::string& job,
                                std::uint64_t sequence) {
  core::SampleMessage sample;
  sample.sequence = sequence;
  sample.job_name = job;
  sample.min_settable_cap_watts = 80.0;
  sample.host_observed_watts = {200.0, 200.0};
  sample.host_needed_watts = {240.0, 240.0};
  return sample;
}

bool wait_for(const std::function<bool()>& predicate, milliseconds timeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (predicate()) {
      return true;
    }
    std::this_thread::sleep_for(milliseconds(5));
  }
  return predicate();
}

TEST(BatchedWriteTest, DisconnectDuringBatchedFlushReclaimsWattsExactlyOnce) {
  const double budget = 4.0 * 210.0;  // 840 W over 4 hosts
  std::atomic<bool> fail_victim_writes{false};

  DaemonOptions options;
  options.system_budget_watts = budget;
  options.node_tdp_watts = 256.0;
  options.uncappable_watts = 16.0;
  options.min_jobs = 2;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(100);
  options.heartbeat_timeout = milliseconds(60'000);
  options.transport_wrapper =
      [&fail_victim_writes](std::unique_ptr<Transport> inner) {
        return std::make_unique<VictimTransport>(
            std::move(inner), "job a-victim", fail_victim_writes);
      };
  PowerDaemon daemon(options);
  const std::string socket_path = unique_path("flush");
  daemon.listen_unix(socket_path);
  std::thread serving([&daemon] { daemon.run(); });

  // The victim's connection is doomed before it registers: its first
  // (and only) outbound frame is the bootstrap policy the batch flush
  // writes — so the session dies with that frame queued, after the
  // allocation already stored its caps.
  fail_victim_writes.store(true, std::memory_order_release);

  Socket victim = connect_unix(socket_path);
  FrameDecoder victim_decoder;
  send_payload(victim, serialize(make_sample("a-victim", 0),
                                 core::WireFidelity::kExact));

  Socket survivor = connect_unix(socket_path);
  FrameDecoder survivor_decoder;
  send_payload(survivor, serialize(make_sample("b-survivor", 0),
                                   core::WireFidelity::kExact));

  // The survivor's bootstrap reply proves the round completed even
  // though the batch flush lost a peer mid-write.
  std::optional<std::string> reply =
      read_payload(survivor, survivor_decoder, milliseconds(5000));
  ASSERT_TRUE(reply.has_value());
  const core::PolicyMessage bootstrap = core::parse_policy_message(*reply);
  EXPECT_EQ(bootstrap.job_name, "b-survivor");
  ASSERT_EQ(bootstrap.host_caps_watts.size(), 2u);
  // Uniform launch share: budget / total hosts, per host.
  EXPECT_DOUBLE_EQ(bootstrap.host_caps_watts[0], budget / 4.0);
  EXPECT_DOUBLE_EQ(bootstrap.host_caps_watts[1], budget / 4.0);

  // The dead flush must have closed the victim's session immediately —
  // not left it half-alive until the idle scan.
  ASSERT_TRUE(wait_for(
      [&daemon] { return daemon.stats().sessions_closed >= 1; },
      milliseconds(5000)));
  EXPECT_EQ(daemon.stats().jobs_evicted, 0u);  // grace is running

  // Grace expiry: the victim's seat is reclaimed, worth exactly its
  // stored bootstrap share (2 hosts x 210 W), exactly once.
  ASSERT_TRUE(wait_for(
      [&daemon] { return daemon.stats().jobs_evicted == 1; },
      milliseconds(5000)));
  const DaemonStats at_eviction = daemon.stats();
  EXPECT_DOUBLE_EQ(at_eviction.watts_reclaimed, 2.0 * (budget / 4.0));

  // Exactly once: ticks keep running, nothing reclaims the same watts
  // again (the double-free would show up right here).
  std::this_thread::sleep_for(milliseconds(200));
  const DaemonStats later = daemon.stats();
  EXPECT_EQ(later.jobs_evicted, 1u);
  EXPECT_DOUBLE_EQ(later.watts_reclaimed, at_eviction.watts_reclaimed);

  // The freed watts are usable: the survivor's next round may now
  // exceed its old uniform share, and never the budget.
  send_payload(survivor, serialize(make_sample("b-survivor", 1),
                                   core::WireFidelity::kExact));
  reply = read_payload(survivor, survivor_decoder, milliseconds(5000));
  ASSERT_TRUE(reply.has_value());
  const core::PolicyMessage after = core::parse_policy_message(*reply);
  EXPECT_EQ(after.sequence, 1u);
  double total = 0.0;
  for (const double cap : after.host_caps_watts) {
    total += cap;
  }
  EXPECT_GT(total, 2.0 * (budget / 4.0));
  EXPECT_LE(total, budget + 1e-6);

  victim.close();
  survivor.close();
  daemon.stop();
  serving.join();
  std::remove(socket_path.c_str());
}

TEST(BatchedWriteTest, RackJobEvictionUnbindsWithoutClosingRackSession) {
  // The rack-session variant of the audit: one aggregator session
  // carries jobs a and b. When b stalls past the heartbeat, evicting it
  // must surgically unbind b from the rack session — closing the shared
  // session would take the healthy job down with it (the original bug).
  const double budget = 4.0 * 210.0;

  DaemonOptions options;
  options.system_budget_watts = budget;
  options.node_tdp_watts = 256.0;
  options.uncappable_watts = 16.0;
  options.min_jobs = 2;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(60'000);  // no disconnect here
  options.heartbeat_timeout = milliseconds(100);
  options.root_mode = true;
  PowerDaemon root(options);
  const std::string socket_path = unique_path("rack");
  root.listen_unix(socket_path);
  std::thread serving([&root] { root.run(); });

  Socket rack = connect_unix(socket_path);
  FrameDecoder decoder;

  // Round 0: both jobs bootstrap through one batched rack frame.
  core::RackSampleMessage round0;
  round0.rack = "r0";
  round0.round = 0;
  round0.samples = {make_sample("a-alive", 0), make_sample("b-stalled", 0)};
  send_payload(rack, serialize(round0, core::WireFidelity::kExact));

  std::optional<std::string> reply =
      read_payload(rack, decoder, milliseconds(5000));
  ASSERT_TRUE(reply.has_value());
  const core::RackPolicyMessage bootstrap =
      core::parse_rack_policy_message(*reply);
  ASSERT_EQ(bootstrap.policies.size(), 2u);
  EXPECT_DOUBLE_EQ(bootstrap.rack_budget_watts, budget);

  // b goes silent; a keeps sampling through the same rack session. Its
  // fresh samples wait on b until the heartbeat scan evicts b.
  std::uint64_t sequence = 1;
  const auto deadline = steady_clock::now() + milliseconds(5000);
  while (root.stats().jobs_evicted == 0 && steady_clock::now() < deadline) {
    core::RackSampleMessage frame;
    frame.rack = "r0";
    frame.round = sequence;
    frame.samples = {make_sample("a-alive", sequence)};
    send_payload(rack, serialize(frame, core::WireFidelity::kExact));
    ++sequence;
    std::this_thread::sleep_for(milliseconds(20));
  }
  const DaemonStats after_eviction = root.stats();
  ASSERT_EQ(after_eviction.jobs_evicted, 1u);
  // b held its bootstrap share; the eviction returned it, once.
  EXPECT_DOUBLE_EQ(after_eviction.watts_reclaimed, 2.0 * (budget / 4.0));
  // The audited property: the shared rack session survived the eviction.
  EXPECT_EQ(after_eviction.rack_sessions, 1u);
  EXPECT_EQ(after_eviction.sessions_closed, 0u);

  // And it still works: the next a-only frame completes a round whose
  // batched reply names only the surviving job.
  core::RackSampleMessage frame;
  frame.rack = "r0";
  frame.round = sequence;
  frame.samples = {make_sample("a-alive", sequence)};
  send_payload(rack, serialize(frame, core::WireFidelity::kExact));

  core::RackPolicyMessage final_policy;
  const auto read_deadline = steady_clock::now() + milliseconds(5000);
  while (steady_clock::now() < read_deadline) {
    reply = read_payload(rack, decoder, milliseconds(1000));
    if (!reply.has_value()) {
      continue;
    }
    final_policy = core::parse_rack_policy_message(*reply);
    if (final_policy.policies.size() == 1) {
      break;
    }
  }
  ASSERT_EQ(final_policy.policies.size(), 1u);
  EXPECT_EQ(final_policy.policies[0].job_name, "a-alive");
  double total = 0.0;
  for (const double cap : final_policy.policies[0].host_caps_watts) {
    total += cap;
  }
  EXPECT_DOUBLE_EQ(final_policy.rack_budget_watts, total);
  EXPECT_LE(total, budget + 1e-6);

  rack.close();
  root.stop();
  serving.join();
  std::remove(socket_path.c_str());
}

/// One rack frame of `jobs`, every sample at `sequence`.
std::string rack_frame(const std::string& rack,
                       const std::vector<std::string>& jobs,
                       std::uint64_t sequence) {
  core::RackSampleMessage frame;
  frame.rack = rack;
  frame.round = sequence;
  for (const std::string& job : jobs) {
    frame.samples.push_back(make_sample(job, sequence));
  }
  return serialize(frame, core::WireFidelity::kExact);
}

/// The next rack-policy frame on `socket` whose round is `round`.
std::optional<core::RackPolicyMessage> read_rack_round(
    Socket& socket, FrameDecoder& decoder, std::uint64_t round) {
  const auto deadline = steady_clock::now() + milliseconds(5000);
  while (steady_clock::now() < deadline) {
    const std::optional<std::string> reply =
        read_payload(socket, decoder, milliseconds(1000));
    if (!reply.has_value() ||
        core::wire_message_kind(*reply) != core::WireMessageKind::kRackPolicy) {
      continue;
    }
    core::RackPolicyMessage policy = core::parse_rack_policy_message(*reply);
    if (policy.round == round) {
      return policy;
    }
  }
  return std::nullopt;
}

std::vector<std::string> job_names(const core::RackPolicyMessage& reply) {
  std::vector<std::string> names;
  for (const core::PolicyMessage& policy : reply.policies) {
    names.push_back(policy.job_name);
  }
  return names;
}

TEST(HierarchyRackSessionTest, RackCloseGracesExactlyItsOwnJobs) {
  // A rack's jobs are the job records bound to its session. Closing rack
  // A must put exactly A's remaining jobs into grace and leave rack B's
  // bound; the job A lost to a stall eviction must stay gone; and A's
  // reconnect must rebind its jobs and hear their stored caps again.
  DaemonOptions options;
  options.system_budget_watts = 5.0 * 2.0 * 210.0;  // 5 jobs x 2 hosts
  options.node_tdp_watts = 256.0;
  options.uncappable_watts = 16.0;
  options.min_jobs = 5;
  options.tick_interval = milliseconds(10);
  options.reclaim_timeout = milliseconds(60'000);  // grace outlives the test
  options.heartbeat_timeout = milliseconds(300);
  options.root_mode = true;
  PowerDaemon root(options);
  const std::string socket_path = unique_path("membership");
  root.listen_unix(socket_path);
  std::thread serving([&root] { root.run(); });

  Socket rack_a = connect_unix(socket_path);
  FrameDecoder decoder_a;
  Socket rack_b = connect_unix(socket_path);
  FrameDecoder decoder_b;

  send_payload(rack_a, rack_frame("ra", {"a1", "a2", "a3"}, 0));
  send_payload(rack_b, rack_frame("rb", {"b1", "b2"}, 0));
  ASSERT_TRUE(read_rack_round(rack_a, decoder_a, 0).has_value());
  ASSERT_TRUE(read_rack_round(rack_b, decoder_b, 0).has_value());

  // Round 1 without a3: its heartbeat stall evicts it and the round
  // completes over the other four jobs.
  send_payload(rack_a, rack_frame("ra", {"a1", "a2"}, 1));
  send_payload(rack_b, rack_frame("rb", {"b1", "b2"}, 1));
  const std::optional<core::RackPolicyMessage> round1_a =
      read_rack_round(rack_a, decoder_a, 1);
  const std::optional<core::RackPolicyMessage> round1_b =
      read_rack_round(rack_b, decoder_b, 1);
  ASSERT_TRUE(round1_a.has_value());
  ASSERT_TRUE(round1_b.has_value());
  EXPECT_EQ(job_names(*round1_a), (std::vector<std::string>{"a1", "a2"}));
  EXPECT_EQ(job_names(*round1_b), (std::vector<std::string>{"b1", "b2"}));
  const DaemonStats before_close = root.stats();
  ASSERT_EQ(before_close.jobs_evicted, 1u);
  ASSERT_EQ(before_close.rack_sessions, 2u);
  ASSERT_EQ(before_close.sessions_closed, 0u);

  rack_a.close();
  ASSERT_TRUE(wait_for([&root] { return root.stats().sessions_closed == 1; },
                       milliseconds(5000)));
  EXPECT_EQ(root.stats().rack_sessions, 1u);

  // Rack B retries its answered round: its jobs are still bound to its
  // session, so nothing rebinds, and the stored caps come back as they
  // were.
  send_payload(rack_b, rack_frame("rb", {"b1", "b2"}, 1));
  const std::optional<core::RackPolicyMessage> resend_b =
      read_rack_round(rack_b, decoder_b, 1);
  ASSERT_TRUE(resend_b.has_value());
  EXPECT_EQ(*resend_b, *round1_b);
  const DaemonStats after_b = root.stats();
  EXPECT_EQ(after_b.sessions_rehydrated, before_close.sessions_rehydrated);
  EXPECT_EQ(after_b.rack_policies_resent,
            before_close.rack_policies_resent + 1);

  // Rack A reconnects and retries its answered round: exactly its two
  // remaining jobs rebind out of grace (a job still bound to the dead
  // session would be refused as already registered), a3 stays gone, and
  // the stored caps come back as one batched resend.
  Socket rack_a2 = connect_unix(socket_path);
  FrameDecoder decoder_a2;
  send_payload(rack_a2, rack_frame("ra", {"a1", "a2"}, 1));
  const std::optional<core::RackPolicyMessage> resend_a =
      read_rack_round(rack_a2, decoder_a2, 1);
  ASSERT_TRUE(resend_a.has_value());
  EXPECT_EQ(*resend_a, *round1_a);
  const DaemonStats after_a = root.stats();
  EXPECT_EQ(after_a.sessions_rehydrated,
            before_close.sessions_rehydrated + 2);
  EXPECT_EQ(after_a.rack_sessions, 2u);

  // The next round completes over the four live jobs only. Rack B
  // reconnects for it, so while the round waits no job is connected,
  // unanswered and old enough for the heartbeat to evict.
  rack_b.close();
  ASSERT_TRUE(wait_for([&root] { return root.stats().sessions_closed == 2; },
                       milliseconds(5000)));
  send_payload(rack_a2, rack_frame("ra", {"a1", "a2"}, 2));
  Socket rack_b2 = connect_unix(socket_path);
  FrameDecoder decoder_b2;
  send_payload(rack_b2, rack_frame("rb", {"b1", "b2"}, 2));
  const std::optional<core::RackPolicyMessage> round2_a =
      read_rack_round(rack_a2, decoder_a2, 2);
  const std::optional<core::RackPolicyMessage> round2_b =
      read_rack_round(rack_b2, decoder_b2, 2);
  ASSERT_TRUE(round2_a.has_value());
  ASSERT_TRUE(round2_b.has_value());
  EXPECT_EQ(job_names(*round2_a), (std::vector<std::string>{"a1", "a2"}));
  EXPECT_EQ(job_names(*round2_b), (std::vector<std::string>{"b1", "b2"}));
  const DaemonStats final_stats = root.stats();
  EXPECT_EQ(final_stats.jobs_evicted, 1u);
  EXPECT_EQ(final_stats.allocations, before_close.allocations + 1);
  EXPECT_EQ(final_stats.sessions_rehydrated,
            before_close.sessions_rehydrated + 4);
  EXPECT_EQ(final_stats.protocol_errors, 0u);

  rack_a2.close();
  rack_b2.close();
  root.stop();
  serving.join();
  std::remove(socket_path.c_str());
}

}  // namespace
}  // namespace ps::net
