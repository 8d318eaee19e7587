// Failover benchmark: time-to-takeover of the hot-standby control plane.
//
// Each episode wires the full HA pair — primary PowerDaemon + Replicator,
// StandbyDaemon replicating over the lease protocol, one RuntimeClient on
// an ordered {primary, standby} endpoint list — runs a few allocation
// rounds, kills the primary (daemon and replicator, mid-run), and
// measures the wall time from the kill to the client's first successful
// exchange against the promoted standby. Takeover is dominated by the
// replication lease (the standby must observe a full silent lease before
// promoting), so p50/p99 land a little above --lease and stay stable
// across machines; CI pins them via BENCH_failover.json and
// tools/check_bench.py --mode failover.
//
//   ./ext_ha_failover --episodes 7 --lease 300 --out failover.json
//
// The quantiles are read back from the obs metrics histogram
// "ha.failover.takeover_seconds" (bucket upper edges — conservative),
// exactly what a production scrape of the same instrument would report.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/endpoint.hpp"
#include "ha/replicator.hpp"
#include "ha/standby.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/args.hpp"

namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

/// Takeover-time bucket lower edges (seconds): 50 ms resolution through
/// the lease-dominated region, coarser above.
const std::vector<double> kTakeoverBounds = {
    0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
    0.60, 0.70, 0.80, 0.90, 1.00, 1.25, 1.50, 2.00, 3.00, 5.00};

std::string unique_path(const std::string& tag, int episode) {
  return "/tmp/ps-habench-" + tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(episode) + ".sock";
}

ps::core::SampleMessage make_sample(std::uint64_t sequence) {
  ps::core::SampleMessage sample;
  sample.sequence = sequence;
  sample.job_name = "bench-job";
  sample.min_settable_cap_watts = 100.0;
  sample.host_observed_watts = {180.0, 170.0};
  sample.host_needed_watts = {175.0, 165.0};
  return sample;
}

/// One kill-and-takeover episode; returns the takeover time in seconds.
double run_episode(int episode, milliseconds lease,
                   ps::obs::Observability obs) {
  const std::string primary_path = unique_path("primary", episode);
  const std::string standby_path = unique_path("standby", episode);
  const std::string repl_path = unique_path("repl", episode);

  ps::ha::ReplicatorOptions replicator_options;
  replicator_options.lease = lease;
  replicator_options.obs = obs;
  auto replicator = std::make_unique<ps::ha::Replicator>(replicator_options);
  replicator->listen_unix(repl_path);
  replicator->start();

  ps::net::DaemonOptions daemon_options;
  daemon_options.system_budget_watts = 1'000.0;
  daemon_options.min_jobs = 1;
  daemon_options.tick_interval = milliseconds(10);

  ps::net::DaemonOptions primary_options = daemon_options;
  primary_options.replication_sink = replicator->sink();
  primary_options.fence_check = replicator->fence_check();
  auto primary = std::make_unique<ps::net::PowerDaemon>(primary_options);
  primary->listen_unix(primary_path);
  std::thread primary_thread([&primary] { primary->run(); });

  ps::ha::StandbyOptions standby_options;
  standby_options.primary = [repl_path] {
    return ps::net::make_transport(ps::net::connect_unix(repl_path));
  };
  standby_options.daemon = daemon_options;
  standby_options.lease = lease;
  standby_options.dial_retry = milliseconds(10);
  standby_options.obs = obs;
  standby_options.bind = [&standby_path](ps::net::PowerDaemon& daemon) {
    daemon.listen_unix(standby_path);
  };
  ps::ha::StandbyDaemon standby(standby_options);
  std::thread standby_thread([&standby] { standby.run(); });

  ps::net::ClientOptions client_options;
  client_options.request_timeout = milliseconds(10'000);
  client_options.backoff_initial = milliseconds(5);
  client_options.backoff_max = milliseconds(25);
  client_options.connect_attempts_per_endpoint = 2;
  client_options.endpoint_probe_timeout = milliseconds(200);
  std::vector<ps::net::RuntimeClient::TransportConnector> endpoints;
  for (const std::string* path : {&primary_path, &standby_path}) {
    endpoints.push_back([path = *path] {
      return ps::net::make_transport(ps::net::connect_unix(path));
    });
  }
  ps::net::RuntimeClient client(std::move(endpoints), client_options);

  // Warm rounds on the primary so the standby has replicated real state
  // by the time the kill lands.
  std::uint64_t sequence = 1;
  for (int round = 0; round < 3; ++round) {
    if (!client.exchange(make_sample(sequence)).has_value()) {
      std::cerr << "episode " << episode << ": warm exchange " << sequence
                << " failed\n";
      std::exit(1);
    }
    ++sequence;
  }
  const auto synced_deadline = Clock::now() + std::chrono::seconds(10);
  while (!standby.synced() && Clock::now() < synced_deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  if (!standby.synced()) {
    std::cerr << "episode " << episode << ": standby never synced\n";
    std::exit(1);
  }

  // The kill: primary and replicator vanish; the clock runs until the
  // client's next exchange succeeds (against the promoted standby).
  primary->stop();
  primary_thread.join();
  primary.reset();
  replicator.reset();
  const auto killed_at = Clock::now();

  std::optional<ps::core::PolicyMessage> policy;
  while (!policy.has_value()) {
    policy = client.exchange(make_sample(sequence));
    ++sequence;
  }
  const double takeover =
      std::chrono::duration<double>(Clock::now() - killed_at).count();

  if (policy->fence_epoch != 1 || client.fence_epoch() != 1) {
    std::cerr << "episode " << episode
              << ": takeover reply not fenced as the successor\n";
    std::exit(1);
  }
  standby.stop();
  standby_thread.join();
  std::remove(standby_path.c_str());
  return takeover;
}

}  // namespace

int main(int argc, char** argv) {
  ps::util::ArgParser parser;
  parser.add_option("--episodes", "7", "kill-and-takeover episodes")
      .add_option("--lease", "300", "replication lease in milliseconds")
      .add_option("--out", "", "JSON output path (default: stdout only)");
  const auto [episodes, lease] = ps::bench::read_command_line(
      parser, argc, argv, [](const ps::util::ArgParser& args) {
        return std::pair(static_cast<int>(args.option_size("--episodes")),
                         milliseconds(args.option_size("--lease")));
      });

  ps::obs::MetricsRegistry registry;
  const ps::obs::Observability obs{&registry, nullptr};
  ps::obs::Histogram& takeover_hist =
      registry.histogram("ha.failover.takeover_seconds", kTakeoverBounds);

  for (int episode = 0; episode < episodes; ++episode) {
    const double takeover = run_episode(episode, lease, obs);
    takeover_hist.observe(takeover);
    std::printf("episode %d: takeover %.3f s\n", episode, takeover);
  }

  const ps::obs::HistogramSnapshot snapshot = takeover_hist.snapshot();
  const double p50 = ps::obs::histogram_quantile(snapshot, 0.50);
  const double p99 = ps::obs::histogram_quantile(snapshot, 0.99);
  const double mean =
      snapshot.total() == 0
          ? 0.0
          : snapshot.sum / static_cast<double>(snapshot.total());
  std::printf(
      "takeover over %d episodes (lease %lld ms): p50 %.3f s, p99 %.3f s, "
      "mean %.3f s\n",
      episodes, static_cast<long long>(lease.count()), p50, p99, mean);

  const std::string out = parser.option("--out");
  if (!out.empty()) {
    std::ofstream file(out, std::ios::trunc);
    file << "{\n"
         << "  \"bench\": \"ext_ha_failover\",\n"
         << "  \"episodes\": " << episodes << ",\n"
         << "  \"lease_ms\": " << lease.count() << ",\n"
         << "  \"takeover_p50_seconds\": " << p50 << ",\n"
         << "  \"takeover_p99_seconds\": " << p99 << ",\n"
         << "  \"takeover_mean_seconds\": " << mean << "\n"
         << "}\n";
  }
  return 0;
}
