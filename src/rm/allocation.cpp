#include "rm/allocation.hpp"

#include "util/error.hpp"

namespace ps::rm {

namespace {
const std::vector<double> kNoGpuCaps;
}  // namespace

bool PowerAllocation::has_gpu_caps() const {
  for (const auto& job : job_host_gpu_caps) {
    if (!job.empty()) {
      return true;
    }
  }
  return false;
}

const std::vector<double>& PowerAllocation::job_gpu_caps(
    std::size_t job) const {
  PS_REQUIRE(job < job_host_caps.size(), "job index out of range");
  if (job >= job_host_gpu_caps.size()) {
    return kNoGpuCaps;
  }
  return job_host_gpu_caps[job];
}

double PowerAllocation::total_watts() const {
  double total = 0.0;
  for (const auto& job : job_host_caps) {
    for (double cap : job) {
      total += cap;
    }
  }
  for (const auto& job : job_host_gpu_caps) {
    for (double cap : job) {
      total += cap;
    }
  }
  return total;
}

double PowerAllocation::job_total_watts(std::size_t job) const {
  PS_REQUIRE(job < job_host_caps.size(), "job index out of range");
  double total = 0.0;
  for (double cap : job_host_caps[job]) {
    total += cap;
  }
  for (double cap : job_gpu_caps(job)) {
    total += cap;
  }
  return total;
}

std::size_t PowerAllocation::host_count() const {
  std::size_t count = 0;
  for (const auto& job : job_host_caps) {
    count += job.size();
  }
  for (const auto& job : job_host_gpu_caps) {
    count += job.size();
  }
  return count;
}

double PowerAllocation::budget_tolerance_watts() const {
  return 0.5 * static_cast<double>(host_count());
}

bool PowerAllocation::within_budget(double budget_watts,
                                    double tolerance_watts) const {
  return total_watts() <= budget_watts + tolerance_watts;
}

}  // namespace ps::rm
