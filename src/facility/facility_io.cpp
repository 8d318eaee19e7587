#include "facility/facility_io.hpp"

#include <istream>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ps::facility {

namespace {

constexpr std::string_view kLegacyHeader =
    "job,arrival_hours,start_hours,finish_hours,wait_hours,restarts,"
    "energy_joules";
constexpr std::string_view kSlaHeader =
    "job,arrival_hours,start_hours,finish_hours,wait_hours,restarts,"
    "energy_joules,sla_class,sla_violated";

/// A result (or record set) serializes in the extended form only when it
/// actually carries multi-tenant state; every single-class run keeps the
/// legacy bytes.
bool needs_sla_columns(std::span<const FacilityJobRecord> jobs) {
  for (const FacilityJobRecord& job : jobs) {
    if (job.sla_class != sim::SlaClass::kStandard || job.sla_violated) {
      return true;
    }
  }
  return false;
}

}  // namespace

void write_power_csv(std::ostream& out, const FacilityResult& result) {
  PS_REQUIRE(result.step_hours > 0.0, "result has no time base");
  util::CsvWriter csv(out);
  csv.write_row({"hours", "power_watts", "utilization"});
  for (std::size_t step = 0; step < result.power_watts.size(); ++step) {
    csv.write_row(
        {util::format_fixed(static_cast<double>(step) * result.step_hours,
                            3),
         util::format_fixed(result.power_watts[step], 1),
         util::format_fixed(result.utilization[step], 4)});
  }
}

void write_jobs_csv(std::ostream& out,
                    std::span<const FacilityJobRecord> jobs) {
  const bool sla = needs_sla_columns(jobs);
  util::CsvWriter csv(out);
  std::vector<std::string> header = {
      "job",        "arrival_hours", "start_hours", "finish_hours",
      "wait_hours", "restarts",      "energy_joules"};
  if (sla) {
    header.push_back("sla_class");
    header.push_back("sla_violated");
  }
  csv.write_row(header);
  for (const FacilityJobRecord& job : jobs) {
    std::vector<std::string> row = {
        job.name, util::format_fixed(job.arrival_hours, 3),
        job.started() ? util::format_fixed(job.start_hours, 3) : "",
        job.finished() ? util::format_fixed(job.finish_hours, 3) : "",
        job.started() ? util::format_fixed(job.wait_hours(), 3) : "",
        std::to_string(job.restarts),
        util::format_fixed(job.energy_joules, 1)};
    if (sla) {
      row.emplace_back(sim::to_string(job.sla_class));
      row.emplace_back(job.sla_violated ? "1" : "0");
    }
    csv.write_row(row);
  }
}

void write_jobs_csv(std::ostream& out, const FacilityResult& result) {
  write_jobs_csv(out, result.jobs);
}

std::vector<FacilityJobRecord> read_jobs_csv(std::istream& in) {
  std::string line;
  PS_REQUIRE(static_cast<bool>(std::getline(in, line)),
             "jobs CSV has no header");
  const std::string_view header = util::trim(line);
  const bool sla = header == kSlaHeader;
  PS_REQUIRE(sla || header == kLegacyHeader,
             "unrecognized jobs CSV header");
  const std::size_t columns = sla ? 9u : 7u;
  std::vector<FacilityJobRecord> jobs;
  while (std::getline(in, line)) {
    const std::string_view row = util::trim(line);
    if (row.empty()) {
      continue;
    }
    const std::vector<std::string> fields = util::split(row, ',');
    PS_REQUIRE(fields.size() == columns, "jobs CSV row has wrong arity");
    FacilityJobRecord job;
    job.name = fields[0];
    PS_REQUIRE(!job.name.empty(), "jobs CSV row has an empty job name");
    job.arrival_hours = util::parse_finite(fields[1], "arrival_hours");
    if (!fields[2].empty()) {
      job.start_hours = util::parse_finite(fields[2], "start_hours");
    }
    if (!fields[3].empty()) {
      job.finish_hours = util::parse_finite(fields[3], "finish_hours");
    }
    // fields[4] (wait_hours) is derived from start − arrival; the writer
    // recomputes it, so it is validated for form but not stored.
    if (!fields[4].empty()) {
      static_cast<void>(util::parse_finite(fields[4], "wait_hours"));
    }
    PS_REQUIRE(fields[2].empty() == fields[4].empty(),
               "wait_hours must be present exactly when start_hours is");
    job.restarts = util::parse_u64(fields[5], "restarts");
    job.energy_joules = util::parse_finite(fields[6], "energy_joules");
    if (sla) {
      job.sla_class = sim::parse_sla_class(fields[7]);
      PS_REQUIRE(fields[8] == "0" || fields[8] == "1",
                 "sla_violated must be 0 or 1");
      job.sla_violated = fields[8] == "1";
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace ps::facility
