#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy.hpp"
#include "rm/allocation.hpp"
#include "sim/job_sim.hpp"

namespace ps::core {

/// Runtime -> RM telemetry message: everything the policies need to know
/// about one running job. The paper's conclusion notes that "there is not
/// currently an existing protocol or central mechanism for coordinating
/// power management decisions" — this header defines one, and the tests
/// prove it carries enough information to reproduce the coordinated
/// allocation exactly.
struct SampleMessage {
  std::uint64_t sequence = 0;
  std::string job_name;
  double min_settable_cap_watts = 0.0;
  std::vector<double> host_observed_watts;  ///< Demand estimate per host.
  std::vector<double> host_needed_watts;    ///< Balancer-needed per host.

  /// GPU-domain telemetry (wire v3). Empty vectors = a single-domain job
  /// (the message serializes as v1, byte-identical to pre-hetero peers).
  std::vector<double> host_gpu_observed_watts;
  std::vector<double> host_gpu_needed_watts;
  double gpu_min_cap_watts = 0.0;  ///< Per-host GPU-domain settable floor.
  double gpu_tdp_watts = 0.0;      ///< Per-host GPU-domain TDP.

  /// Multi-tenant service class. kStandard (the default) serializes as
  /// the line's absence, keeping single-tenant traffic byte-identical to
  /// the pre-SLA wire — the same discipline as budget_epoch.
  sim::SlaClass sla_class = sim::SlaClass::kStandard;

  [[nodiscard]] bool has_gpu_domain() const noexcept {
    return !host_gpu_needed_watts.empty();
  }
  [[nodiscard]] bool operator==(const SampleMessage&) const = default;
};

/// RM -> runtime control message: the caps one job must program.
/// `budget_epoch` tags the caps with the budget renegotiation epoch they
/// were computed under (0 = the construction-time budget, the v1 wire
/// form). A client that has heard a newer epoch rejects older-tagged
/// caps as stale — they would overspend a budget that has since shrunk.
struct PolicyMessage {
  std::uint64_t sequence = 0;
  std::string job_name;
  std::vector<double> host_caps_watts;
  /// GPU-domain caps (wire v3). Empty = single-domain (v1 bytes on the
  /// wire); otherwise one GPU cap per host.
  std::vector<double> host_gpu_caps_watts;
  std::uint64_t budget_epoch = 0;
  /// Fencing epoch of the daemon incarnation that computed the caps
  /// (0 = a daemon that has never failed over — the line is absent on
  /// the wire, keeping single-daemon traffic byte-identical). A promoted
  /// standby runs at its predecessor's fence + 1; clients ratchet the
  /// highest fence ever heard and reject lower-fenced caps as the output
  /// of a fenced zombie primary — the same discipline as budget_epoch,
  /// but spanning daemon incarnations instead of budget renegotiations.
  std::uint64_t fence_epoch = 0;

  [[nodiscard]] bool has_gpu_domain() const noexcept {
    return !host_gpu_caps_watts.empty();
  }
  [[nodiscard]] bool operator==(const PolicyMessage&) const = default;
};

/// RM -> runtime budget-revision push: the daemon announces a
/// renegotiated system budget to every live client. Clients use it to
/// advance their session budget epoch (and so to reject caps computed
/// under superseded budgets); `emergency` marks a brownout-scale drop.
struct BudgetMessage {
  std::uint64_t epoch = 0;        ///< Renegotiation epoch (monotone).
  double budget_watts = 0.0;      ///< The revised system budget.
  bool emergency = false;

  [[nodiscard]] bool operator==(const BudgetMessage&) const = default;
};

/// Aggregator -> root telemetry: one rack's whole round in a single
/// frame. The per-rack AggregatorDaemon terminates its clients' sessions
/// and batches every local job's newest sample upward, so the root sees
/// one frame per rack per round instead of one per job — the RPC-batching
/// shape that lets a two-level tree reach 10k+ clients.
struct RackSampleMessage {
  std::string rack;                    ///< Rack name (single token).
  std::uint64_t round = 0;             ///< max sample sequence in the batch.
  std::vector<SampleMessage> samples;  ///< Name-ordered, names unique.

  [[nodiscard]] bool operator==(const RackSampleMessage&) const = default;
};

/// Root -> aggregator control: the renegotiated rack budget plus every
/// rack job's caps, batched into one frame per rack per round. The rack
/// budget is the sum of the embedded policies' caps — the root
/// renegotiates it each epoch simply by re-running the global allocation,
/// so sharding changes the fan-out topology but not a single watt.
/// Epoch semantics ride inside the embedded PolicyMessages (budget_epoch
/// and fence lines), exactly as on the flat wire.
struct RackPolicyMessage {
  std::string rack;
  std::uint64_t round = 0;             ///< max policy sequence in the batch.
  double rack_budget_watts = 0.0;      ///< Sum of embedded policy caps.
  std::vector<PolicyMessage> policies; ///< Name-ordered, names unique.

  [[nodiscard]] bool operator==(const RackPolicyMessage&) const = default;
};

/// Numeric fidelity of the serialized form — a writer-side knob; the v1
/// grammar never fixed the decimal count, so both render as valid v1.
/// `kDisplay` renders watts at milliwatt precision (the human-readable
/// archival format). `kExact` renders every double as its shortest
/// round-tripping decimal, so a value survives the wire bit-for-bit —
/// what the live daemon transport uses, and the reason a distributed
/// allocation can equal the in-memory one watt-for-watt.
enum class WireFidelity { kDisplay, kExact };

/// Line-based wire format (versioned, human-readable):
///
///   powerstack-sample v1
///   sequence 7
///   job lulesh-512
///   min_cap 152.000
///   observed 214.125 220.000 ...
///   needed 152.000 195.750 ...
///
/// Multi-domain (heterogeneous) jobs use the v3 form, which appends the
/// GPU domain after the v1 lines in a fixed order (v2 is skipped so the
/// protocol family shares the snapshot format's version numbering):
///
///   powerstack-sample v3
///   ...the six v1 lines...
///   gpu_min_cap 100.000
///   gpu_tdp 300.000
///   gpu_observed 245.000 ...
///   gpu_needed 187.500 ...
///
/// Single-domain messages serialize as v1, byte-identical to the
/// pre-hetero wire — the same discipline as the budget_epoch tag.
///
/// A non-standard SLA class appends one optional trailing line after the
/// domain sections (`sla_class best_effort` / `sla_class
/// latency_critical`); kStandard is the line's absence, so single-tenant
/// traffic stays byte-identical to the pre-SLA wire.
///
/// Parsers throw ps::InvalidArgument on malformed input: truncated
/// messages, non-numeric fields, negative or non-finite watts, duplicate
/// or out-of-order domain lines, and mismatched vector lengths.
[[nodiscard]] std::string serialize(const SampleMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kDisplay);
/// PolicyMessage serializes as the 4-line v1 form when budget_epoch is 0
/// and gains a fifth `budget_epoch` line otherwise; the parser accepts
/// both, so pre-dynamic-budget peers interoperate unchanged. With GPU
/// caps present it becomes v3: a `gpu_caps` line follows `caps`. The
/// optional trailing lines keep a fixed order — `budget_epoch` then
/// `fence` — and each is present exactly when its field is non-zero, so
/// a message from a never-failed-over daemon under a never-revised
/// budget is byte-identical to the original v1 wire.
[[nodiscard]] std::string serialize(const PolicyMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kDisplay);
[[nodiscard]] std::string serialize(const BudgetMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kDisplay);
/// Rack-aggregate wire form (v1): a header block followed by one
/// length-prefixed embedded message per job, in job-name order:
///
///   powerstack-rack-sample v1
///   rack r04
///   round 7
///   jobs 2
///   sample 6
///   ...the 6 non-empty lines of an embedded powerstack-sample...
///   sample 6
///   ...
///
/// Each `sample N` / `policy N` prefix states how many non-empty lines
/// the embedded message occupies, so the parser delimits blocks without
/// re-deriving version-specific line counts. A frame is split once into
/// line views; each block is a sub-span of them, not a re-joined string,
/// parsed by the flat sample/policy parsers with all of their strictness.
/// The rack-policy form inserts a `rack_budget <watts>` line between
/// `round` and `jobs`. Parsers throw ps::InvalidArgument on torn frames
/// (block counts that overrun the payload), job counts that disagree with
/// the block count, duplicate or out-of-name-order jobs, and a `round`
/// that is not the max embedded sequence.
[[nodiscard]] std::string serialize(const RackSampleMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kDisplay);
[[nodiscard]] std::string serialize(const RackPolicyMessage& message,
                                    WireFidelity fidelity =
                                        WireFidelity::kDisplay);
[[nodiscard]] SampleMessage parse_sample_message(std::string_view text);
[[nodiscard]] PolicyMessage parse_policy_message(std::string_view text);
[[nodiscard]] BudgetMessage parse_budget_message(std::string_view text);
[[nodiscard]] RackSampleMessage parse_rack_sample_message(
    std::string_view text);
[[nodiscard]] RackPolicyMessage parse_rack_policy_message(
    std::string_view text);

/// What kind of wire message a frame holds, judged by its header line
/// only (so a receiver can dispatch before committing to a full parse).
enum class WireMessageKind {
  kSample,
  kPolicy,
  kBudget,
  kRackSample,
  kRackPolicy,
  kUnknown
};
[[nodiscard]] WireMessageKind wire_message_kind(std::string_view text);

/// Keeps the newest sample from one producer, enforcing the sequence
/// contract the resource-manager daemon relies on: stale or out-of-order
/// sequence numbers are ignored, the newest sequence wins, and offering a
/// duplicate sequence is idempotent. A sample is "fresh" until consumed,
/// which is how an allocation barrier knows every job has reported since
/// the last epoch.
class SampleLatch {
 public:
  /// Accepts `message` iff it is the first sample seen or its sequence is
  /// strictly newer than the held one. Returns whether it was accepted.
  bool offer(SampleMessage message);

  [[nodiscard]] const std::optional<SampleMessage>& latest() const noexcept {
    return latest_;
  }
  /// True if the held sample has not been consumed yet.
  [[nodiscard]] bool has_fresh() const noexcept { return fresh_; }
  /// Marks the held sample consumed and returns it. Throws
  /// ps::InvalidState when no sample was ever offered.
  const SampleMessage& consume();

 private:
  std::optional<SampleMessage> latest_;
  bool fresh_ = false;
};

/// A bidirectional in-memory endpoint (the GEOPM "endpoint" analogue:
/// in reality a shared-memory region between the RM daemon and the job
/// runtime). Samples flow runtime -> RM; policies flow RM -> runtime.
/// Messages cross the endpoint in serialized form, so anything that
/// round-trips here round-trips any byte transport.
class Endpoint {
 public:
  void post_sample(const SampleMessage& message);
  [[nodiscard]] std::optional<SampleMessage> receive_sample();
  void post_policy(const PolicyMessage& message);
  [[nodiscard]] std::optional<PolicyMessage> receive_policy();

  [[nodiscard]] std::size_t pending_samples() const noexcept {
    return samples_.size();
  }
  [[nodiscard]] std::size_t pending_policies() const noexcept {
    return policies_.size();
  }

 private:
  std::deque<std::string> samples_;
  std::deque<std::string> policies_;
};

/// Runtime side: measures one job into a SampleMessage (observed power
/// from its last iteration; needed power from the balancer search).
[[nodiscard]] SampleMessage make_sample(sim::JobSimulation& job,
                                        std::uint64_t sequence);

/// RM side: reconstructs a PolicyContext from received samples.
[[nodiscard]] PolicyContext context_from_samples(
    double system_budget_watts, double node_tdp_watts,
    double uncappable_watts, const std::vector<SampleMessage>& samples);

/// RM side: splits an allocation into one PolicyMessage per job, each
/// tagged with the budget renegotiation epoch it was computed under.
[[nodiscard]] std::vector<PolicyMessage> make_policy_messages(
    const rm::PowerAllocation& allocation,
    const std::vector<SampleMessage>& samples, std::uint64_t sequence,
    std::uint64_t budget_epoch = 0);

/// Runtime side: programs the caps a PolicyMessage carries. Throws
/// ps::InvalidArgument if the message does not match the job.
void apply_policy_message(sim::JobSimulation& job,
                          const PolicyMessage& message);

}  // namespace ps::core
