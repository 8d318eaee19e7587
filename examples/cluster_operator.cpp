// A day in the life of a cluster operator: run a week of Poisson job
// traffic through the event-driven facility under an aggressive power
// budget, archive one job's GEOPM-style report and the site's
// characterization store, and print the facility dashboard.
//
//   ./cluster_operator [--nodes N]
#include <cstdio>
#include <sstream>
#include <string_view>

#include "facility/facility_manager.hpp"
#include "runtime/basic_agents.hpp"
#include "runtime/characterization_io.hpp"
#include "runtime/controller.hpp"
#include "runtime/report_writer.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace ps;
  std::size_t nodes = 32;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--nodes" && i + 1 < argc) {
      try {
        nodes = util::parse_count("--nodes", argv[++i]);
      } catch (const InvalidArgument& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    }
  }

  // --- The facility week ---
  sim::Cluster cluster(nodes);
  facility::JobTraceOptions traffic;
  traffic.horizon_hours = 24.0 * 7.0;
  traffic.arrivals_per_hour = 0.5;
  traffic.min_nodes = nodes / 8;
  traffic.max_nodes = nodes / 2;
  util::Rng rng(0x0b5);
  const auto trace = facility::generate_job_trace(rng, traffic);

  facility::FacilityOptions options;
  options.horizon_hours = traffic.horizon_hours;
  options.policy = core::PolicyKind::kMixedAdaptive;
  options.system_budget_watts =
      0.75 * cluster.node(0).tdp() * static_cast<double>(nodes);
  facility::FacilityManager manager(cluster, options);
  const facility::FacilityResult week = manager.run(trace);

  std::printf("Facility dashboard (%zu nodes, 1 week, MixedAdaptive, "
              "budget %s):\n", nodes,
              util::format_watts(options.system_budget_watts).c_str());
  std::printf("  jobs submitted / completed: %zu / %zu\n", trace.size(),
              week.completed_jobs);
  std::printf("  mean queue wait:            %.2f h\n",
              week.mean_wait_hours());
  std::printf("  mean / peak power:          %s / %s\n",
              util::format_watts(week.mean_power_watts()).c_str(),
              util::format_watts(week.peak_power_watts()).c_str());
  std::printf("  node utilization:           %.0f%%\n",
              week.mean_utilization() * 100.0);
  std::printf("  energy consumed:            %.1f MJ\n\n",
              week.total_energy_joules / 1e6);

  // --- Archive a characterization, as a site would between runs ---
  kernel::WorkloadConfig workload;
  workload.intensity = 8.0;
  workload.waiting_fraction = 0.5;
  workload.imbalance = 2.0;
  std::vector<hw::NodeModel*> hosts;
  for (std::size_t i = 0; i < 4; ++i) {
    hosts.push_back(&cluster.node(i));
  }
  sim::JobSimulation job("nightly-characterization", hosts, workload);
  runtime::CharacterizationStore store;
  store.put(workload.name(), runtime::characterize_job(job, 5));
  std::ostringstream archive;
  runtime::write_store_csv(archive, store, {workload.name()});
  std::printf("Characterization archive (%s):\n%s\n",
              workload.name().c_str(), archive.str().c_str());

  // --- And one job report, GEOPM style ---
  job.reset_totals();
  runtime::MonitorAgent monitor;
  const runtime::JobReport report =
      runtime::Controller(10).run(job, monitor);
  std::printf("%s\n", runtime::to_text_report(report).c_str());
  return 0;
}
