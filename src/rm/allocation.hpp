#pragma once

#include <cstddef>
#include <vector>

namespace ps::rm {

/// Per-host, per-domain power caps for a set of jobs, as produced by a
/// power policy. job_host_caps[j][h] is the CPU/node cap (watts) of host h
/// of job j. job_host_gpu_caps carries the second (GPU) power domain:
/// empty for a single-domain allocation; otherwise one vector per job,
/// where an empty inner vector means that job has no GPU domain and a
/// non-empty one holds one GPU cap per host.
struct PowerAllocation {
  std::vector<std::vector<double>> job_host_caps;
  std::vector<std::vector<double>> job_host_gpu_caps;

  /// True when any job carries GPU-domain caps.
  [[nodiscard]] bool has_gpu_caps() const;
  /// GPU caps of one job ({} when the allocation or job is CPU-only).
  [[nodiscard]] const std::vector<double>& job_gpu_caps(std::size_t job) const;

  /// Sums across both domains (a job's draw against the one node budget).
  [[nodiscard]] double total_watts() const;
  [[nodiscard]] double job_total_watts(std::size_t job) const;
  /// Number of capped domain entries (GPU-domain entries count too: the
  /// budget tolerance scales with the number of quantized limits).
  [[nodiscard]] std::size_t host_count() const;
  /// The RAPL quantization slack of a budget comparison, the one
  /// tolerance of the RM step: 0.5 W per limit (host_count()).
  [[nodiscard]] double budget_tolerance_watts() const;

  /// True if total allocated power is within `budget_watts` plus a small
  /// tolerance for RAPL quantization.
  [[nodiscard]] bool within_budget(double budget_watts,
                                   double tolerance_watts = 1.0) const;
};

}  // namespace ps::rm
