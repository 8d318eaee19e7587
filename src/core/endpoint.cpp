#include "core/endpoint.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "runtime/power_balancer_agent.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ps::core {

namespace {

/// A message's non-empty lines, as views into the received text. An
/// embedded rack block is a sub-span of its frame's lines.
using Lines = std::span<const std::string_view>;

/// Appends `key` and one watt value per element: milliwatt fixed point
/// for kDisplay, the exact util::append_watts for kExact.
void append_watts(std::string& out, std::string_view key,
                  std::span<const double> values, WireFidelity fidelity) {
  if (fidelity == WireFidelity::kExact) {
    util::append_watts(out, key, values);
    return;
  }
  out += key;
  for (const double value : values) {
    out.append(" ").append(util::format_fixed(value, 3));
  }
  out += '\n';
}

void append_message(std::string& out, const SampleMessage& message,
                    WireFidelity fidelity) {
  out += message.has_gpu_domain() ? "powerstack-sample v3\n"
                                  : "powerstack-sample v1\n";
  util::append_uint(out, "sequence", message.sequence);
  out.append("job ").append(message.job_name) += '\n';
  append_watts(out, "min_cap", {&message.min_settable_cap_watts, 1},
               fidelity);
  append_watts(out, "observed", message.host_observed_watts, fidelity);
  append_watts(out, "needed", message.host_needed_watts, fidelity);
  if (message.has_gpu_domain()) {
    append_watts(out, "gpu_min_cap", {&message.gpu_min_cap_watts, 1},
                 fidelity);
    append_watts(out, "gpu_tdp", {&message.gpu_tdp_watts, 1}, fidelity);
    append_watts(out, "gpu_observed", message.host_gpu_observed_watts,
                 fidelity);
    append_watts(out, "gpu_needed", message.host_gpu_needed_watts,
                 fidelity);
  }
  if (message.sla_class != sim::SlaClass::kStandard) {
    out.append("sla_class ").append(sim::to_string(message.sla_class)) +=
        '\n';
  }
}

void append_message(std::string& out, const PolicyMessage& message,
                    WireFidelity fidelity) {
  out += message.has_gpu_domain() ? "powerstack-policy v3\n"
                                  : "powerstack-policy v1\n";
  util::append_uint(out, "sequence", message.sequence);
  out.append("job ").append(message.job_name) += '\n';
  append_watts(out, "caps", message.host_caps_watts, fidelity);
  if (message.has_gpu_domain()) {
    append_watts(out, "gpu_caps", message.host_gpu_caps_watts, fidelity);
  }
  if (message.budget_epoch != 0) {
    util::append_uint(out, "budget_epoch", message.budget_epoch);
  }
  if (message.fence_epoch != 0) {
    util::append_uint(out, "fence", message.fence_epoch);
  }
}

/// Appends the `jobs N` line and one block per embedded message: a
/// `key N` prefix stating how many non-empty lines the message occupies,
/// then the message.
template <typename Message>
void append_blocks(std::string& out, std::string_view key,
                   const std::vector<Message>& messages,
                   WireFidelity fidelity) {
  util::append_uint(out, "jobs", messages.size());
  std::string body;
  for (const Message& message : messages) {
    body.clear();
    append_message(body, message, fidelity);
    std::uint64_t count = 0;
    util::for_each_non_empty_line(body,
                                  [&count](std::string_view) { ++count; });
    util::append_uint(out, key, count);
    out += body;
  }
}

std::string parse_job_name(std::string_view line) {
  const std::string_view name = util::keyed_value(line, "job");
  PS_REQUIRE(!name.empty(), "empty job name");
  return std::string(name);
}

/// The watts after `key`, untrimmed (see util::for_each_token).
std::vector<double> parse_vector(std::string_view line,
                                 std::string_view key) {
  PS_REQUIRE(util::starts_with(line, key), util::expected_line(key));
  return util::parse_watts_list(line.substr(key.size()), key);
}

std::string parse_rack_name(std::string_view line) {
  const std::string_view name = util::keyed_value(line, "rack");
  PS_REQUIRE(!name.empty(), "empty rack name");
  PS_REQUIRE(name.find(' ') == std::string_view::npos,
             "rack name must be a single token");
  return std::string(name);
}

SampleMessage parse_sample_lines(Lines lines) {
  PS_REQUIRE(!lines.empty(), "empty sample message");
  const bool v3 = lines[0] == "powerstack-sample v3";
  PS_REQUIRE(v3 || lines[0] == "powerstack-sample v1",
             "not a v1 or v3 sample message");
  // The strict line count and fixed key order reject truncated or
  // duplicated domain sections outright. One optional trailing
  // `sla_class` line (absent = standard) follows the domain sections.
  const std::size_t base = v3 ? 10u : 6u;
  PS_REQUIRE(lines.size() == base || lines.size() == base + 1,
             v3 ? "v3 sample message needs 10 or 11 lines"
                : "sample message needs 6 or 7 lines");
  SampleMessage message;
  message.sequence = util::keyed_u64(lines[1], "sequence");
  message.job_name = parse_job_name(lines[2]);
  message.min_settable_cap_watts =
      util::keyed_watts(lines[3], "min_cap");
  message.host_observed_watts = parse_vector(lines[4], "observed");
  message.host_needed_watts = parse_vector(lines[5], "needed");
  PS_REQUIRE(message.host_observed_watts.size() ==
                 message.host_needed_watts.size(),
             "sample vectors disagree on host count");
  PS_REQUIRE(!message.host_observed_watts.empty(),
             "sample message has no hosts");
  if (v3) {
    message.gpu_min_cap_watts =
        util::keyed_watts(lines[6], "gpu_min_cap");
    message.gpu_tdp_watts =
        util::keyed_watts(lines[7], "gpu_tdp");
    PS_REQUIRE(message.gpu_min_cap_watts > 0.0 &&
                   message.gpu_min_cap_watts <= message.gpu_tdp_watts,
               "GPU cap range must satisfy 0 < min <= TDP");
    message.host_gpu_observed_watts =
        parse_vector(lines[8], "gpu_observed");
    message.host_gpu_needed_watts = parse_vector(lines[9], "gpu_needed");
    PS_REQUIRE(message.host_gpu_observed_watts.size() ==
                       message.host_observed_watts.size() &&
                   message.host_gpu_needed_watts.size() ==
                       message.host_observed_watts.size(),
               "GPU sample vectors disagree on host count");
  }
  // Optional trailing line, only in its explicit (non-standard) form —
  // the standard case is the line's absence (the pre-SLA wire).
  if (lines.size() == base + 1) {
    message.sla_class =
        sim::parse_sla_class(util::keyed_value(lines[base], "sla_class"));
    PS_REQUIRE(message.sla_class != sim::SlaClass::kStandard,
               "explicit sla_class must be non-standard");
  }
  return message;
}

PolicyMessage parse_policy_lines(Lines lines) {
  PS_REQUIRE(!lines.empty(), "empty policy message");
  const bool v3 = lines[0] == "powerstack-policy v3";
  PS_REQUIRE(v3 || lines[0] == "powerstack-policy v1",
             "not a v1 or v3 policy message");
  const std::size_t base = v3 ? 5 : 4;
  PS_REQUIRE(lines.size() >= base && lines.size() <= base + 2,
             v3 ? "v3 policy message needs 5 to 7 lines"
                : "policy message needs 4 to 6 lines");
  PolicyMessage message;
  message.sequence = util::keyed_u64(lines[1], "sequence");
  message.job_name = parse_job_name(lines[2]);
  message.host_caps_watts = parse_vector(lines[3], "caps");
  PS_REQUIRE(!message.host_caps_watts.empty(),
             "policy message has no hosts");
  if (v3) {
    message.host_gpu_caps_watts = parse_vector(lines[4], "gpu_caps");
    PS_REQUIRE(message.host_gpu_caps_watts.size() ==
                   message.host_caps_watts.size(),
               "GPU caps disagree on host count");
  }
  // Optional trailing lines, fixed order, each at most once, and only in
  // its explicit (non-zero) form — the zero case is the line's absence.
  std::size_t next = base;
  if (next < lines.size() && util::starts_with(lines[next], "budget_epoch ")) {
    message.budget_epoch = util::keyed_u64(lines[next], "budget_epoch");
    PS_REQUIRE(message.budget_epoch != 0,
               "explicit budget_epoch must be non-zero");
    ++next;
  }
  if (next < lines.size() && util::starts_with(lines[next], "fence ")) {
    message.fence_epoch = util::keyed_u64(lines[next], "fence");
    PS_REQUIRE(message.fence_epoch != 0,
               "explicit fence must be non-zero");
    ++next;
  }
  PS_REQUIRE(next == lines.size(),
             "unexpected trailing line in policy message");
  return message;
}

/// Parses the `jobs` length-prefixed blocks after a rack frame's header.
/// Each block is a sub-span of the frame's lines and must fit the frame
/// (the torn-frame guard); names must ascend, the blocks must end the
/// frame and `round` must be the newest embedded sequence.
template <typename Message>
std::vector<Message> parse_rack_blocks(Lines lines, std::size_t next,
                                       std::uint64_t jobs,
                                       std::uint64_t round,
                                       std::string_view key,
                                       std::string_view plural,
                                       Message (*parse_block)(Lines)) {
  const std::string what(key);
  std::vector<Message> messages;
  // Every block takes at least two lines, so a hostile job count cannot
  // size the reservation past the frame.
  messages.reserve(std::min<std::uint64_t>(jobs, lines.size() / 2));
  std::uint64_t max_sequence = 0;
  for (std::uint64_t j = 0; j < jobs; ++j) {
    PS_REQUIRE(next < lines.size(),
               "rack " + what + " message truncated before its block prefix");
    const std::uint64_t count = util::keyed_u64(lines[next], key);
    ++next;
    PS_REQUIRE(count > 0, what + " block must not be empty");
    PS_REQUIRE(count <= lines.size() - next,
               what + " block overruns the frame");
    Message message = parse_block(lines.subspan(next, count));
    next += count;
    PS_REQUIRE(
        messages.empty() || messages.back().job_name < message.job_name,
        "rack " + std::string(plural) + " must be unique and name-ordered");
    max_sequence = std::max(max_sequence, message.sequence);
    messages.push_back(std::move(message));
  }
  PS_REQUIRE(next == lines.size(),
             "unexpected trailing line in rack " + what + " message");
  PS_REQUIRE(round == max_sequence,
             "rack round must equal the max embedded sequence");
  return messages;
}

}  // namespace

std::string serialize(const SampleMessage& message, WireFidelity fidelity) {
  std::string out;
  append_message(out, message, fidelity);
  return out;
}

std::string serialize(const PolicyMessage& message, WireFidelity fidelity) {
  std::string out;
  append_message(out, message, fidelity);
  return out;
}

std::string serialize(const BudgetMessage& message, WireFidelity fidelity) {
  std::string out = "powerstack-budget v1\n";
  util::append_uint(out, "epoch", message.epoch);
  append_watts(out, "budget", {&message.budget_watts, 1}, fidelity);
  util::append_uint(out, "emergency", message.emergency ? 1 : 0);
  return out;
}

std::string serialize(const RackSampleMessage& message,
                      WireFidelity fidelity) {
  std::string out = "powerstack-rack-sample v1\n";
  out.append("rack ").append(message.rack) += '\n';
  util::append_uint(out, "round", message.round);
  append_blocks(out, "sample", message.samples, fidelity);
  return out;
}

std::string serialize(const RackPolicyMessage& message,
                      WireFidelity fidelity) {
  std::string out = "powerstack-rack-policy v1\n";
  out.append("rack ").append(message.rack) += '\n';
  util::append_uint(out, "round", message.round);
  append_watts(out, "rack_budget", {&message.rack_budget_watts, 1},
               fidelity);
  append_blocks(out, "policy", message.policies, fidelity);
  return out;
}

SampleMessage parse_sample_message(std::string_view text) {
  return parse_sample_lines(util::non_empty_lines(text));
}

PolicyMessage parse_policy_message(std::string_view text) {
  return parse_policy_lines(util::non_empty_lines(text));
}

BudgetMessage parse_budget_message(std::string_view text) {
  const std::vector<std::string_view> lines = util::non_empty_lines(text);
  PS_REQUIRE(lines.size() == 4, "budget message needs 4 lines");
  PS_REQUIRE(lines[0] == "powerstack-budget v1",
             "not a v1 budget message");
  BudgetMessage message;
  message.epoch = util::keyed_u64(lines[1], "epoch");
  PS_REQUIRE(message.epoch != 0, "budget epoch must be non-zero");
  message.budget_watts = util::keyed_watts(lines[2], "budget");
  PS_REQUIRE(message.budget_watts > 0.0, "budget must be positive");
  const std::uint64_t emergency = util::keyed_u64(lines[3], "emergency");
  PS_REQUIRE(emergency <= 1, "emergency must be 0 or 1");
  message.emergency = emergency == 1;
  return message;
}

RackSampleMessage parse_rack_sample_message(std::string_view text) {
  const std::vector<std::string_view> lines = util::non_empty_lines(text);
  PS_REQUIRE(lines.size() >= 4, "truncated rack sample message");
  PS_REQUIRE(lines[0] == "powerstack-rack-sample v1",
             "not a v1 rack sample message");
  RackSampleMessage message;
  message.rack = parse_rack_name(lines[1]);
  message.round = util::keyed_u64(lines[2], "round");
  const std::uint64_t jobs = util::keyed_u64(lines[3], "jobs");
  PS_REQUIRE(jobs > 0, "rack sample message has no jobs");
  message.samples = parse_rack_blocks(lines, 4, jobs, message.round,
                                      "sample", "samples", parse_sample_lines);
  return message;
}

RackPolicyMessage parse_rack_policy_message(std::string_view text) {
  const std::vector<std::string_view> lines = util::non_empty_lines(text);
  PS_REQUIRE(lines.size() >= 5, "truncated rack policy message");
  PS_REQUIRE(lines[0] == "powerstack-rack-policy v1",
             "not a v1 rack policy message");
  RackPolicyMessage message;
  message.rack = parse_rack_name(lines[1]);
  message.round = util::keyed_u64(lines[2], "round");
  message.rack_budget_watts =
      util::keyed_watts(lines[3], "rack_budget");
  PS_REQUIRE(message.rack_budget_watts > 0.0,
             "rack budget must be positive");
  const std::uint64_t jobs = util::keyed_u64(lines[4], "jobs");
  PS_REQUIRE(jobs > 0, "rack policy message has no jobs");
  message.policies =
      parse_rack_blocks(lines, 5, jobs, message.round, "policy", "policies",
                        parse_policy_lines);
  double caps_sum = 0.0;
  std::size_t cap_count = 0;
  for (const PolicyMessage& policy : message.policies) {
    for (double cap : policy.host_caps_watts) {
      caps_sum += cap;
    }
    for (double cap : policy.host_gpu_caps_watts) {
      caps_sum += cap;
    }
    cap_count +=
        policy.host_caps_watts.size() + policy.host_gpu_caps_watts.size();
  }
  // The rack budget is the sum of the embedded caps; allow display-
  // fidelity rounding (each value rounds by at most half a milliwatt).
  const double tolerance = 5e-4 * static_cast<double>(cap_count + 1) +
                           1e-9 * caps_sum;
  PS_REQUIRE(std::abs(caps_sum - message.rack_budget_watts) <= tolerance,
             "rack budget disagrees with the embedded caps");
  return message;
}

WireMessageKind wire_message_kind(std::string_view text) {
  const std::size_t newline = text.find('\n');
  const std::string_view header =
      util::trim(newline == std::string_view::npos ? text
                                                   : text.substr(0, newline));
  if (header == "powerstack-sample v1" || header == "powerstack-sample v3") {
    return WireMessageKind::kSample;
  }
  if (header == "powerstack-policy v1" || header == "powerstack-policy v3") {
    return WireMessageKind::kPolicy;
  }
  if (header == "powerstack-budget v1") {
    return WireMessageKind::kBudget;
  }
  if (header == "powerstack-rack-sample v1") {
    return WireMessageKind::kRackSample;
  }
  if (header == "powerstack-rack-policy v1") {
    return WireMessageKind::kRackPolicy;
  }
  return WireMessageKind::kUnknown;
}

bool SampleLatch::offer(SampleMessage message) {
  if (latest_ && message.sequence <= latest_->sequence) {
    return false;  // stale, out-of-order, or duplicate: no state change
  }
  latest_ = std::move(message);
  fresh_ = true;
  return true;
}

const SampleMessage& SampleLatch::consume() {
  PS_CHECK_STATE(latest_.has_value(), "no sample to consume");
  fresh_ = false;
  return *latest_;
}

void Endpoint::post_sample(const SampleMessage& message) {
  samples_.push_back(serialize(message));
}

std::optional<SampleMessage> Endpoint::receive_sample() {
  if (samples_.empty()) {
    return std::nullopt;
  }
  const std::string wire = std::move(samples_.front());
  samples_.pop_front();
  return parse_sample_message(wire);
}

void Endpoint::post_policy(const PolicyMessage& message) {
  policies_.push_back(serialize(message));
}

std::optional<PolicyMessage> Endpoint::receive_policy() {
  if (policies_.empty()) {
    return std::nullopt;
  }
  const std::string wire = std::move(policies_.front());
  policies_.pop_front();
  return parse_policy_message(wire);
}

SampleMessage make_sample(sim::JobSimulation& job, std::uint64_t sequence) {
  SampleMessage message;
  message.sequence = sequence;
  message.job_name = job.name();
  message.min_settable_cap_watts = job.host(0).min_cap();
  // Observed: the model's steady draw under current caps (one probe
  // iteration's per-host average); needed: the balancer search.
  const sim::IterationResult probe = job.run_iteration();
  message.host_observed_watts.reserve(job.host_count());
  for (const auto& host : probe.hosts) {
    message.host_observed_watts.push_back(host.average_power_watts);
  }
  double tdp_budget = 0.0;
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    tdp_budget += job.host(h).tdp();
  }
  message.host_needed_watts = runtime::balance_power(job, tdp_budget);
  message.sla_class = job.sla_class();
  if (job.has_gpu_domain()) {
    // Second domain: observed GPU draw from the probe; needed GPU power
    // from the cap-to-time inversion against the tolerated critical path.
    const runtime::BalancerOptions options;
    const double target = runtime::uncapped_iteration_seconds(job) *
                          (1.0 + options.tolerated_slowdown);
    message.host_gpu_observed_watts.reserve(job.host_count());
    message.host_gpu_needed_watts.reserve(job.host_count());
    for (std::size_t h = 0; h < job.host_count(); ++h) {
      if (!job.host_has_gpu_phase(h)) {
        message.host_gpu_observed_watts.push_back(0.0);
        message.host_gpu_needed_watts.push_back(0.0);
        continue;
      }
      message.host_gpu_observed_watts.push_back(
          probe.hosts[h].gpu_average_power_watts);
      message.host_gpu_needed_watts.push_back(
          runtime::min_gpu_cap_for_time(job, h, target, options));
      if (message.gpu_min_cap_watts == 0.0) {
        message.gpu_min_cap_watts = job.host_gpu_min_cap(h);
        message.gpu_tdp_watts = job.host_gpu_tdp(h);
      }
    }
  }
  return message;
}

PolicyContext context_from_samples(
    double system_budget_watts, double node_tdp_watts,
    double uncappable_watts, const std::vector<SampleMessage>& samples) {
  PolicyContext context;
  context.system_budget_watts = system_budget_watts;
  context.node_tdp_watts = node_tdp_watts;
  context.uncappable_watts = uncappable_watts;
  for (const SampleMessage& sample : samples) {
    runtime::JobCharacterization job;
    job.host_count = sample.host_observed_watts.size();
    job.min_settable_cap_watts = sample.min_settable_cap_watts;
    job.monitor.workload_name = sample.job_name;
    job.monitor.host_average_power_watts = sample.host_observed_watts;
    job.balancer.host_needed_power_watts = sample.host_needed_watts;
    double monitor_max = sample.host_observed_watts.front();
    double monitor_min = monitor_max;
    for (double w : sample.host_observed_watts) {
      monitor_max = std::max(monitor_max, w);
      monitor_min = std::min(monitor_min, w);
    }
    job.monitor.max_host_power_watts = monitor_max;
    job.monitor.min_host_power_watts = monitor_min;
    double needed_max = sample.host_needed_watts.front();
    double needed_min = needed_max;
    for (double w : sample.host_needed_watts) {
      needed_max = std::max(needed_max, w);
      needed_min = std::min(needed_min, w);
    }
    job.balancer.max_host_needed_watts = needed_max;
    job.balancer.min_host_needed_watts = needed_min;
    job.sla_class = sample.sla_class;
    if (sample.has_gpu_domain()) {
      job.host_gpu_observed_watts = sample.host_gpu_observed_watts;
      job.host_gpu_needed_watts = sample.host_gpu_needed_watts;
      job.gpu_min_cap_watts = sample.gpu_min_cap_watts;
      job.gpu_tdp_watts = sample.gpu_tdp_watts;
    }
    context.jobs.push_back(std::move(job));
  }
  return context;
}

std::vector<PolicyMessage> make_policy_messages(
    const rm::PowerAllocation& allocation,
    const std::vector<SampleMessage>& samples, std::uint64_t sequence,
    std::uint64_t budget_epoch) {
  PS_REQUIRE(allocation.job_host_caps.size() == samples.size(),
             "allocation does not match the sample set");
  std::vector<PolicyMessage> messages;
  messages.reserve(samples.size());
  for (std::size_t j = 0; j < samples.size(); ++j) {
    PolicyMessage message;
    message.sequence = sequence;
    message.job_name = samples[j].job_name;
    message.host_caps_watts = allocation.job_host_caps[j];
    message.host_gpu_caps_watts = allocation.job_gpu_caps(j);
    message.budget_epoch = budget_epoch;
    messages.push_back(std::move(message));
  }
  return messages;
}

void apply_policy_message(sim::JobSimulation& job,
                          const PolicyMessage& message) {
  PS_REQUIRE(message.job_name == job.name(),
             "policy message addressed to a different job");
  PS_REQUIRE(message.host_caps_watts.size() == job.host_count(),
             "policy message host count mismatch");
  PS_REQUIRE(message.host_gpu_caps_watts.empty() ||
                 message.host_gpu_caps_watts.size() == job.host_count(),
             "policy message GPU host count mismatch");
  for (std::size_t h = 0; h < job.host_count(); ++h) {
    job.set_host_cap(h, message.host_caps_watts[h]);
    if (!message.host_gpu_caps_watts.empty() &&
        job.host(h).gpu_count() > 0) {
      job.set_host_gpu_cap(h, message.host_gpu_caps_watts[h]);
    }
  }
}

}  // namespace ps::core
