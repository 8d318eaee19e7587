// Hierarchy scale soak: one root daemon + 8 rack aggregators driven by
// thousands of lightweight scripted clients (raw sockets + the frame
// codec — no thread-per-client; --jobs driver threads share the fleet).
//
//   ./ext_hierarchy_scale                      # 10k clients, 5 rounds
//   ./ext_hierarchy_scale --quick --jobs 4     # the CI-bounded variant
//
// Reports per-level round-latency quantiles (p50/p99 from the same
// "net.daemon.round_seconds" / "net.aggregator.round_seconds" obs
// histograms a production scrape would read) and proves zero watt
// leakage across a mass disconnect of 7/8 of the fleet: the root's
// reclaimed watts must equal, to the double, the sum of the caps the
// dead clients last read off the wire.
//
// The --out CSV carries one row per completed round — round index, job
// count, budget, granted watts, min/max per-job grant — all derived
// from the deterministic allocation, never from timing, so a --jobs 4
// run byte-matches a --jobs 1 run (CI diffs them; check_bench.py
// --mode hierarchy re-verifies and pins the checksum, the latency
// bands, and the leak in BENCH_hierarchy.json).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "core/endpoint.hpp"
#include "net/aggregator.hpp"
#include "net/daemon.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRacks = 8;

std::string unique_path(const std::string& tag) {
  return "/tmp/ps-hscale-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

std::string job_name(std::size_t index) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "job-%06zu", index);
  return buffer;
}

ps::core::SampleMessage make_sample(const std::string& job,
                                    std::uint64_t sequence) {
  ps::core::SampleMessage sample;
  sample.sequence = sequence;
  sample.job_name = job;
  sample.min_settable_cap_watts = 80.0;
  sample.host_observed_watts = {205.0};
  sample.host_needed_watts = {225.0};
  return sample;
}

struct ScriptedClient {
  ps::net::Socket socket;
  ps::net::FrameDecoder decoder;
  std::string job;
  double last_caps_sum = 0.0;
};

void send_payload(ps::net::Socket& socket, const std::string& payload) {
  const std::string frame = ps::net::encode_frame(payload);
  std::string_view rest = frame;
  while (!rest.empty()) {
    const ps::net::IoResult result = socket.write_some(rest);
    if (result.status == ps::net::IoStatus::kOk) {
      rest.remove_prefix(result.bytes);
      continue;
    }
    if (result.status != ps::net::IoStatus::kWouldBlock ||
        !socket.wait_writable(milliseconds(10'000))) {
      throw ps::Error("scripted client write failed");
    }
  }
}

std::optional<std::string> read_payload(ps::net::Socket& socket,
                                        ps::net::FrameDecoder& decoder,
                                        milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (true) {
    if (std::optional<std::string> frame = decoder.next()) {
      return frame;
    }
    const auto remaining =
        std::chrono::duration_cast<milliseconds>(deadline - Clock::now());
    if (remaining <= milliseconds(0) ||
        !socket.wait_readable(remaining)) {
      return std::nullopt;
    }
    char buffer[8192];
    const ps::net::IoResult result =
        socket.read_some(buffer, sizeof(buffer));
    if (result.status == ps::net::IoStatus::kClosed) {
      return std::nullopt;
    }
    if (result.status == ps::net::IoStatus::kOk) {
      decoder.feed({buffer, result.bytes});
    }
  }
}

/// Raises RLIMIT_NOFILE to its hard limit and returns how many clients
/// fit (two fds per client — the client socket and the aggregator-side
/// session — plus headroom for listeners, pipes, and epoll instances).
std::size_t fd_capacity_clients() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) {
    return 1024;
  }
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &limit);
    ::getrlimit(RLIMIT_NOFILE, &limit);
  }
  const auto usable = static_cast<std::size_t>(limit.rlim_cur);
  return usable > 512 ? (usable - 256) / 2 : 128;
}

/// Runs fn(i) for every i in [0, count) across `jobs` driver threads
/// (contiguous ranges). Rethrows the first failure after joining.
void parallel_over(std::size_t count, std::size_t jobs,
                   const std::function<void(std::size_t)>& fn) {
  jobs = std::max<std::size_t>(1, std::min(jobs, count));
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  const std::size_t chunk = (count + jobs - 1) / jobs;
  for (std::size_t t = 0; t < jobs; ++t) {
    const std::size_t first = t * chunk;
    const std::size_t last = std::min(count, first + chunk);
    if (first >= last) {
      break;
    }
    threads.emplace_back([&, first, last] {
      try {
        for (std::size_t i = first; i < last; ++i) {
          fn(i);
        }
      } catch (const std::exception& error) {
        if (!failed.exchange(true)) {
          std::cerr << "driver thread failed: " << error.what() << "\n";
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (failed.load()) {
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ps::util::ArgParser parser;
  parser.add_flag("--quick", "CI-bounded scale (512 clients, 3 rounds)")
      .add_option("--clients", "10000", "scripted clients (multiple of 8)")
      .add_option("--rounds", "5", "full-tree rounds before the disconnect")
      .add_option("--jobs", "1", "driver threads sharing the client fleet")
      .add_option("--out", "ext_hierarchy_scale.csv",
                  "per-round CSV (deterministic; --jobs invariant)")
      .add_option("--json", "", "latency/leak summary JSON path");
  auto [total_clients, rounds, driver_jobs] = ps::bench::read_command_line(
      parser, argc, argv, [](const ps::util::ArgParser& args) {
        const bool quick = args.flag("--quick");
        return std::tuple<std::size_t, std::size_t, std::size_t>(
            quick ? 512 : args.option_size("--clients"),
            quick ? 3 : args.option_size("--rounds"),
            args.option_size("--jobs"));
      });

  const std::size_t capacity = fd_capacity_clients();
  if (total_clients > capacity) {
    std::fprintf(stderr,
                 "fd limit caps the fleet at %zu clients (wanted %zu)\n",
                 capacity, total_clients);
    total_clients = capacity;
  }
  total_clients -= total_clients % kRacks;
  const std::size_t per_rack = total_clients / kRacks;
  const double budget = static_cast<double>(total_clients) * 210.0;

  ps::obs::MetricsRegistry root_metrics;
  ps::obs::MetricsRegistry rack_metrics;

  ps::net::DaemonOptions root_options;
  root_options.system_budget_watts = budget;
  root_options.node_tdp_watts = 256.0;
  root_options.uncappable_watts = 16.0;
  root_options.min_jobs = total_clients;
  root_options.tick_interval = milliseconds(10);
  root_options.reclaim_timeout = milliseconds(60'000);
  // The heartbeat must comfortably exceed one full-tree round, which
  // grows with the fleet: a live job mid-round looks "silent" exactly
  // as long as the round takes.
  root_options.heartbeat_timeout =
      milliseconds(500 + 2 * static_cast<long>(total_clients));
  root_options.root_mode = true;
  root_options.obs.metrics = &root_metrics;
  ps::net::PowerDaemon root(root_options);
  const std::string root_path = unique_path("root");
  root.listen_unix(root_path);
  std::thread root_thread([&root] { root.run(); });

  std::vector<std::unique_ptr<ps::net::AggregatorDaemon>> aggregators;
  std::vector<std::thread> aggregator_threads;
  std::vector<std::string> rack_paths;
  for (std::size_t r = 0; r < kRacks; ++r) {
    ps::net::AggregatorOptions options;
    options.rack = "rack" + std::to_string(r);
    options.min_jobs = per_rack;
    options.tick_interval = milliseconds(10);
    options.reclaim_timeout = milliseconds(60'000);
    options.parent_connector =
        [root_path]() -> std::unique_ptr<ps::net::Transport> {
      try {
        return ps::net::make_transport(ps::net::connect_unix(root_path));
      } catch (const ps::Error&) {
        return nullptr;
      }
    };
    options.obs.metrics = &rack_metrics;
    aggregators.push_back(
        std::make_unique<ps::net::AggregatorDaemon>(options));
    rack_paths.push_back(unique_path("rack" + std::to_string(r)));
    aggregators.back()->listen_unix(rack_paths.back());
    aggregator_threads.emplace_back(
        [&aggregator = *aggregators.back()] { aggregator.run(); });
  }

  std::vector<ScriptedClient> clients(total_clients);
  parallel_over(total_clients, driver_jobs, [&](std::size_t i) {
    clients[i].job = job_name(i);
    clients[i].socket = ps::net::connect_unix(rack_paths[i / per_rack]);
  });

  // One lockstep tree round for clients [first, first+count): parallel
  // send phase, then parallel read phase. The grant bookkeeping each
  // driver thread writes is per-client; every cross-client reduction
  // below runs sequentially in index order so the CSV is --jobs
  // invariant to the last bit.
  const auto drive_round = [&](std::size_t first, std::size_t count,
                               std::uint64_t sequence) {
    parallel_over(count, driver_jobs, [&](std::size_t offset) {
      ScriptedClient& client = clients[first + offset];
      send_payload(client.socket,
                   serialize(make_sample(client.job, sequence),
                             ps::core::WireFidelity::kExact));
    });
    parallel_over(count, driver_jobs, [&](std::size_t offset) {
      ScriptedClient& client = clients[first + offset];
      const std::optional<std::string> reply =
          read_payload(client.socket, client.decoder, milliseconds(60'000));
      if (!reply.has_value()) {
        throw ps::Error(client.job + ": no reply to sequence " +
                        std::to_string(sequence));
      }
      const ps::core::PolicyMessage policy =
          ps::core::parse_policy_message(*reply);
      if (policy.job_name != client.job || policy.sequence != sequence) {
        throw ps::Error(client.job + ": mismatched policy reply");
      }
      client.last_caps_sum = 0.0;
      for (const double cap : policy.host_caps_watts) {
        client.last_caps_sum += cap;
      }
    });
  };

  std::ostringstream csv;
  csv << "round,jobs,budget_watts,granted_watts,min_grant,max_grant\n";
  const auto emit_row = [&](std::uint64_t round, std::size_t first,
                            std::size_t count) {
    double granted = 0.0;
    double lo = clients[first].last_caps_sum;
    double hi = lo;
    for (std::size_t i = first; i < first + count; ++i) {
      granted += clients[i].last_caps_sum;
      lo = std::min(lo, clients[i].last_caps_sum);
      hi = std::max(hi, clients[i].last_caps_sum);
    }
    char row[160];
    std::snprintf(row, sizeof(row), "%llu,%zu,%.6f,%.6f,%.6f,%.6f\n",
                  static_cast<unsigned long long>(round), count, budget,
                  granted, lo, hi);
    csv << row;
    return granted;
  };

  std::printf("hierarchy scale: %zu clients over %zu racks, %zu rounds, "
              "%zu driver threads, budget %.0f W\n",
              total_clients, kRacks, rounds, driver_jobs, budget);

  const auto soak_start = Clock::now();
  for (std::uint64_t sequence = 0; sequence < rounds; ++sequence) {
    drive_round(0, total_clients, sequence);
    const double granted = emit_row(sequence, 0, total_clients);
    if (granted > budget + 1e-6) {
      std::cerr << "round " << sequence << " granted " << granted
                << " W over the " << budget << " W budget\n";
      std::exit(1);
    }
  }
  const double soak_seconds =
      std::chrono::duration<double>(Clock::now() - soak_start).count();

  // Mass disconnect: racks 1..7 vanish at once; rack 0 keeps sampling so
  // the root's heartbeat scan can prove the silent jobs dead.
  double dead_caps_sum = 0.0;
  for (std::size_t i = per_rack; i < total_clients; ++i) {
    dead_caps_sum += clients[i].last_caps_sum;
  }
  parallel_over(total_clients - per_rack, driver_jobs,
                [&](std::size_t offset) {
                  clients[per_rack + offset].socket.close();
                });
  drive_round(0, per_rack, rounds);

  const std::size_t dead_jobs = total_clients - per_rack;
  const auto evict_deadline = Clock::now() + std::chrono::seconds(60);
  while (root.stats().jobs_evicted < dead_jobs &&
         Clock::now() < evict_deadline) {
    std::this_thread::sleep_for(milliseconds(20));
  }
  const ps::net::DaemonStats after = root.stats();
  if (after.jobs_evicted != dead_jobs) {
    std::cerr << "only " << after.jobs_evicted << " of " << dead_jobs
              << " dead jobs were evicted\n";
    std::exit(1);
  }
  const double leak = std::abs(after.watts_reclaimed - dead_caps_sum);
  if (leak > 1e-6) {
    std::cerr << "watt leak on mass disconnect: reclaimed "
              << after.watts_reclaimed << " W, the dead fleet held "
              << dead_caps_sum << " W (leak " << leak << " W)\n";
    std::exit(1);
  }
  if (after.budget_violations != 0) {
    std::cerr << after.budget_violations << " budget violations\n";
    std::exit(1);
  }

  // The freed watts are re-allocatable by the surviving rack.
  drive_round(0, per_rack, rounds + 1);
  emit_row(rounds + 1, 0, per_rack);

  parallel_over(per_rack, driver_jobs, [&](std::size_t i) {
    clients[i].socket.close();
  });
  for (auto& aggregator : aggregators) {
    aggregator->stop();
  }
  for (std::thread& thread : aggregator_threads) {
    thread.join();
  }
  root.stop();
  root_thread.join();
  std::remove(root_path.c_str());
  for (const std::string& path : rack_paths) {
    std::remove(path.c_str());
  }

  // Per-level latency quantiles off the obs histograms.
  double root_p50 = 0.0;
  double root_p99 = 0.0;
  double rack_p50 = 0.0;
  double rack_p99 = 0.0;
  for (const auto& [name, histogram] : root_metrics.snapshot().histograms) {
    if (name == "net.daemon.round_seconds") {
      root_p50 = ps::obs::histogram_quantile(histogram, 0.50);
      root_p99 = ps::obs::histogram_quantile(histogram, 0.99);
    }
  }
  for (const auto& [name, histogram] : rack_metrics.snapshot().histograms) {
    if (name == "net.aggregator.round_seconds") {
      rack_p50 = ps::obs::histogram_quantile(histogram, 0.50);
      rack_p99 = ps::obs::histogram_quantile(histogram, 0.99);
    }
  }
  std::printf("soak: %zu full rounds in %.3f s; root round p50 %.4f s "
              "p99 %.4f s; rack round p50 %.4f s p99 %.4f s\n",
              rounds, soak_seconds, root_p50, root_p99, rack_p50, rack_p99);
  std::printf("mass disconnect: %zu jobs evicted, %.6f W reclaimed, "
              "leak %.9f W\n",
              dead_jobs, after.watts_reclaimed, leak);

  const std::string out = parser.option("--out");
  if (!out.empty()) {
    std::ofstream file(out, std::ios::trunc);
    file << csv.str();
  }
  const std::string json = parser.option("--json");
  if (!json.empty()) {
    std::ofstream file(json, std::ios::trunc);
    file << "{\n"
         << "  \"bench\": \"ext_hierarchy_scale\",\n"
         << "  \"clients\": " << total_clients << ",\n"
         << "  \"racks\": " << kRacks << ",\n"
         << "  \"rounds\": " << rounds << ",\n"
         << "  \"root_round_p50_seconds\": " << root_p50 << ",\n"
         << "  \"root_round_p99_seconds\": " << root_p99 << ",\n"
         << "  \"rack_round_p50_seconds\": " << rack_p50 << ",\n"
         << "  \"rack_round_p99_seconds\": " << rack_p99 << ",\n"
         << "  \"leak_watts\": " << leak << ",\n"
         << "  \"evicted_jobs\": " << dead_jobs << "\n"
         << "}\n";
  }
  return 0;
}
