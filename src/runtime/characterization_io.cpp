#include "runtime/characterization_io.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ps::runtime {

namespace {
constexpr std::string_view kHeader =
    "job,host,monitor_watts,needed_watts,min_cap_watts";

void write_rows(std::ostream& out, const std::string& job,
                const JobCharacterization& data) {
  util::CsvWriter csv(out);
  for (std::size_t h = 0; h < data.host_count; ++h) {
    csv.write_row(
        {job, std::to_string(h),
         util::format_fixed(data.monitor.host_average_power_watts[h], 3),
         util::format_fixed(data.balancer.host_needed_power_watts[h], 3),
         util::format_fixed(data.min_settable_cap_watts, 3)});
  }
}

/// Recomputes the aggregate fields from the per-host vectors.
void finalize(JobCharacterization& data) {
  data.host_count = data.monitor.host_average_power_watts.size();
  PS_REQUIRE(data.host_count > 0, "characterization has no hosts");
  const auto& monitor = data.monitor.host_average_power_watts;
  const auto& needed = data.balancer.host_needed_power_watts;
  data.monitor.max_host_power_watts =
      *std::max_element(monitor.begin(), monitor.end());
  data.monitor.min_host_power_watts =
      *std::min_element(monitor.begin(), monitor.end());
  data.balancer.max_host_needed_watts =
      *std::max_element(needed.begin(), needed.end());
  data.balancer.min_host_needed_watts =
      *std::min_element(needed.begin(), needed.end());
  double monitor_total = 0.0;
  for (double w : monitor) {
    monitor_total += w;
  }
  data.monitor.average_node_power_watts =
      monitor_total / static_cast<double>(data.host_count);
  data.balancer.host_average_power_watts = needed;
  double needed_total = 0.0;
  for (double w : needed) {
    needed_total += w;
  }
  data.balancer.average_node_power_watts =
      needed_total / static_cast<double>(data.host_count);
}
}  // namespace

void write_characterization_csv(std::ostream& out, const std::string& job,
                                const JobCharacterization& data) {
  PS_REQUIRE(data.host_count ==
                     data.monitor.host_average_power_watts.size() &&
                 data.host_count ==
                     data.balancer.host_needed_power_watts.size(),
             "characterization host vectors are inconsistent");
  out << kHeader << '\n';
  write_rows(out, job, data);
}

void write_store_csv(std::ostream& out, const CharacterizationStore& store,
                     const std::vector<std::string>& job_names) {
  out << kHeader << '\n';
  for (const std::string& job : job_names) {
    write_rows(out, job, store.get(job));
  }
}

CharacterizationStore read_store_csv(std::string_view text) {
  std::map<std::string, JobCharacterization> partial;
  std::size_t line_number = 0;
  for (const std::string& line : util::split(text, '\n')) {
    ++line_number;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed == kHeader) {
      continue;
    }
    const std::vector<std::string> fields = util::split(trimmed, ',');
    PS_REQUIRE(fields.size() == 5, "characterization CSV line " +
                                       std::to_string(line_number) +
                                       " needs 5 fields");
    // A host index is a whole count and every watt field is a whole,
    // finite, non-negative number.
    double monitor = 0.0;
    double needed = 0.0;
    double min_cap = 0.0;
    std::size_t host = 0;
    if (!util::read_whole(fields[1], host) ||
        !util::read_non_negative(fields[2], monitor) ||
        !util::read_non_negative(fields[3], needed) ||
        !util::read_non_negative(fields[4], min_cap)) {
      throw InvalidArgument("characterization CSV line " +
                            std::to_string(line_number) +
                            " is not numeric");
    }
    JobCharacterization& data = partial[fields[0]];
    PS_REQUIRE(host == data.monitor.host_average_power_watts.size(),
               "characterization CSV line " + std::to_string(line_number) +
                   " breaks host ordering");
    data.monitor.host_average_power_watts.push_back(monitor);
    data.balancer.host_needed_power_watts.push_back(needed);
    data.min_settable_cap_watts = min_cap;
    data.monitor.workload_name = fields[0];
    data.balancer.workload_name = fields[0];
  }
  CharacterizationStore store;
  for (auto& [job, data] : partial) {
    finalize(data);
    store.put(job, std::move(data));
  }
  return store;
}

}  // namespace ps::runtime
