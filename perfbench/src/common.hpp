// Shared pieces of the benchmark: run options, the result record every
// workload returns, exact quantiles, process resource readings, SHA-256
// digests, and the in-memory span recorder of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// How one workload is run. `scale_down` selects the tiny inputs the
/// benchmark's own tests use; the measured workloads never set it.
struct RunOptions {
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool scale_down = false;
  /// Pinned output digest for this workload and seed; empty when the
  /// seed has no pin (the workload then checks against a reference it
  /// computes itself).
  std::string pin;
  /// Directory for sockets and the span file (relative paths keep Unix
  /// socket names short).
  std::string workdir = ".";
};

/// Times of the measured phase, shared by every workload's end-to-end
/// report.
struct Measured {
  std::vector<double> setup_s;     ///< One sample per repeated set-up.
  std::vector<double> latency_ms;  ///< One sample per timed unit.
  std::size_t ops = 0;             ///< Cells, rounds or weeks completed.
  double work_units = 0.0;         ///< Numerator of throughput_per_s.
  double wall_s = 0.0;             ///< Measured phase, wall clock.
  double cpu_s = 0.0;              ///< Measured phase, process CPU.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. An op is a grid cell, a tree round or a
/// facility week; `failed` counts ops whose output check did not pass.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// A check that does not belong to one op (setup, daemon counters).
  bool checks_passed = true;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;  ///< End-to-end metrics.
  std::vector<Metric> layers;   ///< Per-layer metrics (traced runs).
  double latency_p50_ms = 0.0;  ///< For the tracing-overhead ratio.
  std::size_t latency_samples = 0;

  void fail(std::string problem);
  /// Fills the end-to-end metrics, named identically for every workload:
  /// setup_s, throughput_per_s, latency_p50_ms, latency_p90_ms,
  /// cpu_ms_per_op and peak_rss_mb.
  void record(const Measured& measured);
  [[nodiscard]] bool correct() const noexcept {
    return checks_passed && failed == 0 && attempted > 0;
  }
};

/// Exact quantile of the samples (linear interpolation between order
/// statistics, as numpy's default). `q` in [0, 1]; samples non-empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process, in MiB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double seconds_since(Clock::time_point start);

/// Lower-case hex SHA-256 of `bytes`.
[[nodiscard]] std::string sha256_hex(std::string_view bytes);

/// Appends the exact bit pattern of `value` to `out` (digest input).
void append_bits(std::string& out, double value);
void append_bits(std::string& out, std::uint64_t value);

/// In-memory span recorder. Spans nest per thread: a span opened while
/// another is open on the same thread records it as its parent. Nothing
/// is written until write_jsonl(), which the benchmark calls at exit.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0: a root span.
    std::string name;
    double start_s = 0.0;  ///< Seconds since the tracer was created.
    double end_s = 0.0;
    [[nodiscard]] double ms() const noexcept {
      return (end_s - start_s) * 1e3;
    }
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread and returns its id. `parent`
  /// names the cause when no span is open on this thread (work handed
  /// to a pool thread).
  std::uint64_t begin(std::string_view name, std::uint64_t parent = 0);
  /// Closes the innermost open span of the calling thread.
  void end();

  /// Copies of the closed spans named `name`.
  [[nodiscard]] std::vector<Span> spans(std::string_view name) const;
  /// Durations (ms) of the closed spans named `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Sum of the durations (ms) of `name` spans whose parent is `parent`.
  [[nodiscard]] double child_ms(std::uint64_t parent,
                                std::string_view name) const;
  [[nodiscard]] std::size_t size() const;

  /// One JSON object per line: id, parent, name, start_s, end_s.
  void write_jsonl(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t id;
    std::uint64_t parent;
    std::string name;
    double start_s;
  };
  [[nodiscard]] double now_s() const;
  static std::vector<Open>& open_stack();

  Clock::time_point origin_;
  mutable std::mutex mutex_;  ///< Guards spans_ and next_id_.
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span that does nothing when the tracer is null (untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, std::uint64_t parent = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->begin(name, parent);
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->end();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
};

}  // namespace perfbench
