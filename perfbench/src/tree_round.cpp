// tree_round: the operator's control round at 10k-job scale. A root
// PowerDaemon (root_mode) runs on its own thread; this driver thread
// stands in for the rack-aggregator tier and speaks the rack grammar over
// four Unix sockets, 2,500 one-host jobs per rack frame. The loop is
// closed: round r+1 is sent only after every round-r reply has arrived.
// Its time is the rack codec on both sides, the daemon's event loop and
// one MixedAdaptive allocation over 10k entries; it runs no simulation.
//
// A driver replaces real aggregators because per-job client sockets
// would need far more connections than the host has cores.
#include <poll.h>
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>

#include "core/degradation.hpp"
#include "core/endpoint.hpp"
#include "net/daemon.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = ps::core;
namespace net = ps::net;
using std::chrono::milliseconds;

constexpr std::size_t kRacks = 4;
/// Rounds cycle through this many seeded input sets, so consecutive
/// rounds allocate different watts and every set is checked many times.
constexpr std::size_t kVariants = 8;
constexpr std::size_t kSetupRepeats = 7;
constexpr double kWattsPerJob = 190.0;
constexpr double kNodeTdp = 256.0;
constexpr double kUncappable = 16.0;
constexpr double kMinCap = 80.0;

/// The seeded inputs: per variant, one rack frame per rack.
struct Inputs {
  std::size_t jobs = 0;
  double budget_watts = 0.0;
  std::vector<std::vector<core::RackSampleMessage>> variants;
};

/// Needed watts spread on both sides of the uniform share, so that
/// MixedAdaptive trims some hosts to their need and refills others
/// toward theirs; observed watts scatter around the need.
Inputs make_inputs(std::uint64_t seed, std::size_t jobs) {
  Inputs inputs;
  inputs.jobs = jobs;
  inputs.budget_watts = kWattsPerJob * static_cast<double>(jobs);
  ps::util::Rng root(seed);
  const std::size_t per_rack = jobs / kRacks;
  for (std::size_t k = 0; k < kVariants; ++k) {
    ps::util::Rng rng = root.fork(k);
    std::vector<core::RackSampleMessage> racks(kRacks);
    for (std::size_t r = 0; r < kRacks; ++r) {
      racks[r].rack = "rack" + std::to_string(r);
      racks[r].samples.reserve(per_rack);
      for (std::size_t i = 0; i < per_rack; ++i) {
        char name[24];
        std::snprintf(name, sizeof(name), "job-%06zu", r * per_rack + i);
        core::SampleMessage sample;
        sample.job_name = name;
        sample.min_settable_cap_watts = kMinCap;
        const double needed = rng.uniform(120.0, 250.0);
        sample.host_needed_watts = {needed};
        sample.host_observed_watts = {
            std::clamp(needed * rng.uniform(0.9, 1.1), kMinCap, kNodeTdp)};
        racks[r].samples.push_back(std::move(sample));
      }
    }
    inputs.variants.push_back(std::move(racks));
  }
  return inputs;
}

/// Digest input of one allocation: every cap's bit pattern, job order.
void append_caps(std::string& out,
                 const std::vector<std::vector<double>>& caps) {
  for (const auto& job : caps) {
    for (const double cap : job) {
      append_bits(out, cap);
    }
  }
}

double thread_cpu_ms(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// What one round measured and received.
struct Round {
  double ms = 0.0;
  double service_ms = 0.0;  ///< Last rack frame sent -> first reply.
  double daemon_cpu_ms = 0.0;
  double driver_cpu_ms = 0.0;
  std::size_t bytes = 0;    ///< Frame bytes sent plus received.
  std::vector<core::RackPolicyMessage> replies;
};

/// A root daemon on its own thread with four connected rack sessions.
/// The destructor stops and joins the daemon and removes the socket.
class Tree {
 public:
  Tree(const Inputs& inputs, const std::string& socket_path,
       ps::obs::MetricsRegistry* registry)
      : socket_path_(socket_path), daemon_(daemon_options(inputs, registry)) {
    daemon_.listen_unix(socket_path_);
    // Connect before the loop starts (the listener's backlog holds the
    // connections), so nothing after the thread starts can throw.
    for (std::size_t r = 0; r < kRacks; ++r) {
      racks_.push_back(net::connect_unix(socket_path_));
      decoders_.emplace_back();
    }
    thread_ = std::thread([this] { daemon_.run(); });
    ::pthread_getcpuclockid(thread_.native_handle(), &daemon_clock_);
  }
  ~Tree() {
    racks_.clear();
    daemon_.stop();
    thread_.join();
    ::unlink(socket_path_.c_str());
  }
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;

  [[nodiscard]] net::DaemonStats stats() const { return daemon_.stats(); }

  /// Sends `frames` (sequence `round`) and waits for every rack's reply.
  Round drive(std::vector<core::RackSampleMessage>& frames,
              std::uint64_t round, Tracer* tracer) {
    Round result;
    const double daemon_cpu = thread_cpu_ms(daemon_clock_);
    const double driver_cpu = thread_cpu_ms(CLOCK_THREAD_CPUTIME_ID);
    const auto start = Clock::now();
    {
      const Scope span(tracer, "tree_round.round");
      for (std::size_t r = 0; r < kRacks; ++r) {
        std::string frame;
        {
          const Scope encode(tracer, "core.endpoint.encode");
          frames[r].round = round;
          for (core::SampleMessage& sample : frames[r].samples) {
            sample.sequence = round;
          }
          frame = net::encode_frame(
              core::serialize(frames[r], core::WireFidelity::kExact));
        }
        result.bytes += frame.size();
        const Scope send(tracer, "net.send");
        send_all(racks_[r], frame);
      }
      const auto sent = Clock::now();
      std::optional<Scope> service(std::in_place, tracer, "net.service");
      result.replies.resize(kRacks);
      std::vector<bool> done(kRacks, false);
      std::size_t pending = kRacks;
      while (pending > 0) {
        for (std::size_t r = 0; r < kRacks; ++r) {
          if (done[r]) {
            continue;
          }
          std::optional<std::string> payload = decoders_[r].next();
          if (!payload) {
            continue;
          }
          if (service) {
            service.reset();
            result.service_ms = seconds_since(sent) * 1e3;
          }
          result.bytes += payload->size() + net::kFrameHeaderBytes;
          const Scope parse(tracer, "core.endpoint.parse");
          result.replies[r] = core::parse_rack_policy_message(*payload);
          done[r] = true;
          --pending;
        }
        if (pending > 0) {
          wait_and_read(done);
        }
      }
    }
    result.ms = seconds_since(start) * 1e3;
    result.daemon_cpu_ms = thread_cpu_ms(daemon_clock_) - daemon_cpu;
    result.driver_cpu_ms =
        thread_cpu_ms(CLOCK_THREAD_CPUTIME_ID) - driver_cpu;
    return result;
  }

 private:
  static net::DaemonOptions daemon_options(
      const Inputs& inputs, ps::obs::MetricsRegistry* registry) {
    net::DaemonOptions options;
    options.system_budget_watts = inputs.budget_watts;
    options.policy = core::PolicyKind::kMixedAdaptive;
    options.node_tdp_watts = kNodeTdp;
    options.uncappable_watts = kUncappable;
    options.min_jobs = inputs.jobs;
    options.root_mode = true;
    // Rounds are back to back; nothing here should ever look idle.
    options.idle_timeout = milliseconds(120'000);
    options.heartbeat_timeout = milliseconds(120'000);
    options.reclaim_timeout = milliseconds(120'000);
    options.obs.metrics = registry;
    return options;
  }

  static void send_all(net::Socket& socket, std::string_view bytes) {
    while (!bytes.empty()) {
      const net::IoResult result = socket.write_some(bytes);
      if (result.status == net::IoStatus::kOk) {
        bytes.remove_prefix(result.bytes);
      } else if (result.status == net::IoStatus::kClosed ||
                 !socket.wait_writable(milliseconds(30'000))) {
        throw std::runtime_error("rack frame could not be sent");
      }
    }
  }

  /// Blocks until some pending rack socket is readable, then drains it.
  void wait_and_read(const std::vector<bool>& done) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> which;
    for (std::size_t r = 0; r < kRacks; ++r) {
      if (!done[r]) {
        fds.push_back(pollfd{racks_[r].fd(), POLLIN, 0});
        which.push_back(r);
      }
    }
    const int ready = ::poll(fds.data(), fds.size(), 30'000);
    if (ready <= 0) {
      throw std::runtime_error("no rack reply within 30 s");
    }
    char buffer[1 << 16];
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) {
        continue;
      }
      net::Socket& socket = racks_[which[i]];
      for (;;) {
        const net::IoResult result = socket.read_some(buffer, sizeof(buffer));
        if (result.status == net::IoStatus::kOk) {
          decoders_[which[i]].feed({buffer, result.bytes});
          continue;
        }
        if (result.status == net::IoStatus::kClosed) {
          throw std::runtime_error("daemon closed a rack session");
        }
        break;
      }
    }
  }

  std::string socket_path_;
  net::PowerDaemon daemon_;
  std::vector<net::Socket> racks_;
  std::vector<net::FrameDecoder> decoders_;
  clockid_t daemon_clock_{};
  std::thread thread_;  ///< Declared last: it runs daemon_.
};

/// Checks one round's replies against what was sent; returns the round's
/// allocation digest, or nullopt when a reply is wrong.
std::optional<std::string> check_replies(
    const Round& round, const std::vector<core::RackSampleMessage>& frames,
    std::uint64_t sequence, double budget_watts, std::string& problem) {
  std::string caps;
  double granted = 0.0;
  for (std::size_t r = 0; r < kRacks; ++r) {
    const core::RackPolicyMessage& reply = round.replies[r];
    if (reply.rack != frames[r].rack || reply.round != sequence ||
        reply.policies.size() != frames[r].samples.size()) {
      problem = "rack " + frames[r].rack + " got a reply for another round";
      return std::nullopt;
    }
    for (std::size_t i = 0; i < reply.policies.size(); ++i) {
      const core::PolicyMessage& policy = reply.policies[i];
      if (policy.job_name != frames[r].samples[i].job_name ||
          policy.sequence != sequence || policy.host_caps_watts.size() != 1) {
        problem = "reply for " + policy.job_name + " does not match its job";
        return std::nullopt;
      }
      granted += policy.host_caps_watts[0];
      append_bits(caps, policy.host_caps_watts[0]);
    }
  }
  if (granted > budget_watts * (1.0 + 1e-9)) {
    problem = "round granted more than the budget";
    return std::nullopt;
  }
  return sha256_hex(caps);
}

}  // namespace

Outcome run_tree_round(const RunOptions& options, Tracer* tracer,
                       ps::obs::MetricsRegistry* registry) {
  const std::size_t jobs = options.scale_down ? 400 : 10'000;
  Inputs inputs = make_inputs(options.seed, jobs);
  const std::string socket_path = options.workdir + "/perfbench-" +
                                  std::to_string(::getpid()) + ".sock";

  Outcome outcome;
  Measured measured;
  std::unique_ptr<Tree> tree;
  for (std::size_t repeat = 0; repeat < kSetupRepeats; ++repeat) {
    tree.reset();
    const auto start = Clock::now();
    const Scope span(tracer, "tree_round.setup");
    tree = std::make_unique<Tree>(inputs, socket_path, registry);
    // The launch-barrier round: every job reports sequence 0 and gets
    // the uniform share.
    const Round bootstrap = tree->drive(inputs.variants[0], 0, nullptr);
    std::string problem;
    if (!check_replies(bootstrap, inputs.variants[0], 0, inputs.budget_watts,
                       problem)) {
      outcome.fail("launch round: " + problem);
    }
    measured.setup_s.push_back(seconds_since(start));
  }

  // The reference: the same allocation computed in memory, once per
  // input set. The daemon must match it bit for bit.
  const auto policy = core::make_policy(core::PolicyKind::kMixedAdaptive);
  std::vector<std::string> expected;
  std::string all_expected;
  for (const auto& frames : inputs.variants) {
    std::vector<core::SampleMessage> samples;
    for (const core::RackSampleMessage& rack : frames) {
      samples.insert(samples.end(), rack.samples.begin(), rack.samples.end());
    }
    const Scope reference(tracer, "tree_round.reference");
    std::optional<core::PolicyContext> context;
    {
      const Scope span(tracer, "core.context_from_samples");
      context.emplace(core::context_from_samples(
          inputs.budget_watts, kNodeTdp, kUncappable, samples));
    }
    std::optional<ps::rm::PowerAllocation> raw;
    {
      const Scope span(tracer, "core.allocate");
      raw.emplace(policy->allocate(*context));
    }
    const ps::rm::PowerAllocation allocation = core::apply_sla_degradation(
        *context, *raw, inputs.budget_watts, "perfbench.reference");
    std::string caps;
    append_caps(caps, allocation.job_host_caps);
    expected.push_back(sha256_hex(caps));
    all_expected += expected.back();
  }
  const std::string digest = sha256_hex(all_expected);
  std::fprintf(stderr, "tree_round: seed %llu digest %s (%s)\n",
               static_cast<unsigned long long>(options.seed), digest.c_str(),
               options.pin.empty() ? "rounds checked in memory only"
                                   : "checked against the pin");
  const bool pin_ok = options.pin.empty() || options.pin == digest;

  // Each round is checked as soon as it is timed; only its figures are
  // kept, so the replies of past rounds do not inflate peak memory.
  std::vector<double> service_ms;
  std::vector<double> daemon_cpu_ms;
  std::vector<double> driver_cpu_ms;
  std::size_t bytes_per_round = 0;
  const net::DaemonStats before = tree->stats();
  double check_s = 0.0;
  const double cpu_start = process_cpu_seconds();
  const auto wall_start = Clock::now();
  std::uint64_t sequence = 1;
  do {
    auto& frames = inputs.variants[(sequence - 1) % kVariants];
    const Round round = tree->drive(frames, sequence, tracer);
    const auto check_start = Clock::now();
    measured.latency_ms.push_back(round.ms);
    service_ms.push_back(round.service_ms);
    daemon_cpu_ms.push_back(round.daemon_cpu_ms);
    driver_cpu_ms.push_back(round.driver_cpu_ms);
    bytes_per_round = round.bytes;
    std::string problem;
    const std::optional<std::string> caps = check_replies(
        round, frames, sequence, inputs.budget_watts, problem);
    if (!caps || *caps != expected[(sequence - 1) % kVariants] || !pin_ok) {
      ++outcome.failed;
      if (!problem.empty() && outcome.problems.size() < 5) {
        outcome.problems.push_back(problem);
      }
    }
    ++sequence;
    check_s += seconds_since(check_start);
  } while (seconds_since(wall_start) < options.seconds);
  // The checks run between rounds; they are the benchmark's own work, so
  // they are taken out of the wall time (their CPU time is small).
  measured.wall_s = seconds_since(wall_start) - check_s;
  measured.cpu_s = process_cpu_seconds() - cpu_start;
  const net::DaemonStats after = tree->stats();
  tree.reset();
  measured.ops = measured.latency_ms.size();
  measured.work_units = static_cast<double>(measured.ops);
  outcome.attempted = measured.ops;
  if (after.protocol_errors != 0 || after.budget_violations != 0) {
    outcome.fail("daemon counted protocol errors or budget violations");
  }
  outcome.record(measured);
  if (tracer == nullptr) {
    return outcome;
  }

  std::vector<double> encode_ms;
  std::vector<double> parse_ms;
  for (const Tracer::Span& span : tracer->spans("tree_round.round")) {
    encode_ms.push_back(tracer->child_ms(span.id, "core.endpoint.encode"));
    parse_ms.push_back(tracer->child_ms(span.id, "core.endpoint.parse"));
  }
  std::vector<double> allocate_us = tracer->durations_ms("core.allocate");
  for (double& value : allocate_us) {
    value *= 1e3;
  }
  const double measured_rounds = static_cast<double>(measured.ops);
  outcome.layers = {
      {"tree_round.core.endpoint.encode_ms", median(encode_ms), "ms"},
      {"tree_round.core.endpoint.parse_ms", median(parse_ms), "ms"},
      {"tree_round.core.endpoint.bytes_per_round",
       static_cast<double>(bytes_per_round), "bytes"},
      {"tree_round.core.context_ms",
       median(tracer->durations_ms("core.context_from_samples")), "ms"},
      {"tree_round.core.allocate_us", median(allocate_us), "us"},
      {"tree_round.net.service_ms", median(service_ms), "ms"},
      {"tree_round.net.daemon_cpu_ms_per_round", median(daemon_cpu_ms),
       "ms"},
      {"tree_round.bench.driver_cpu_ms_per_round", median(driver_cpu_ms),
       "ms"},
      {"tree_round.net.rack_frames_per_round",
       static_cast<double>(after.rack_frames_received -
                           before.rack_frames_received) /
           measured_rounds,
       "count"},
      {"tree_round.net.policies_per_round",
       static_cast<double>(after.policies_sent - before.policies_sent) /
           measured_rounds,
       "count"},
      {"tree_round.net.protocol_errors",
       static_cast<double>(after.protocol_errors), "count"},
      {"tree_round.core.budget_violations",
       static_cast<double>(after.budget_violations), "count"},
  };
  return outcome;
}

}  // namespace perfbench
