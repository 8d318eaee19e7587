#include "net/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "net/framing.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ps::net {

double DaemonSnapshot::allocated_watts() const {
  double total = 0.0;
  for (const SnapshotJob& job : jobs) {
    for (const double cap : job.caps_watts) {
      total += cap;
    }
    for (const double cap : job.gpu_caps_watts) {
      total += cap;
    }
  }
  return total;
}

std::string serialize(const DaemonSnapshot& snapshot) {
  bool any_gpu = false;
  for (const SnapshotJob& job : snapshot.jobs) {
    if (!job.gpu_caps_watts.empty()) {
      any_gpu = true;
      break;
    }
  }
  // v4 (a control plane that has failed over at least once) fixes the
  // job block at the four-line v3 form regardless of GPU presence.
  const bool v4 = snapshot.fence_epoch > 0;
  if (v4) {
    any_gpu = true;
  }
  std::string out = v4        ? "powerstack-snapshot v4\n"
                    : any_gpu ? "powerstack-snapshot v3\n"
                              : "powerstack-snapshot v2\n";
  util::append_watts(out, "budget", {&snapshot.system_budget_watts, 1});
  util::append_uint(out, "budget_epoch", snapshot.budget_epoch);
  if (v4) {
    util::append_uint(out, "fence", snapshot.fence_epoch);
  }
  util::append_uint(out, "barrier", snapshot.launch_barrier_met ? 1 : 0);
  util::append_uint(out, "allocations", snapshot.allocations);
  util::append_uint(out, "jobs", snapshot.jobs.size());
  for (const SnapshotJob& job : snapshot.jobs) {
    out.append("job ").append(job.name) += '\n';
    util::append_uint(out, "sequence", job.sequence);
    util::append_watts(out, "caps", job.caps_watts);
    if (any_gpu) {
      // v3 keeps the per-job line count fixed: single-domain jobs of a
      // mixed cluster write a bare `gpu_caps` line.
      util::append_watts(out, "gpu_caps", job.gpu_caps_watts);
    }
  }
  char checksum[32];  // "checksum " + 8 hex digits + '\n' + NUL = 20 bytes
  std::snprintf(checksum, sizeof(checksum), "checksum %08x\n", crc32(out));
  out += checksum;
  return out;
}

DaemonSnapshot parse_snapshot(std::string_view text) {
  const std::vector<std::string_view> lines = util::non_empty_lines(text);
  PS_REQUIRE(lines.size() >= 6, "snapshot is truncated");

  // The checksum line guards everything before it, byte for byte.
  const std::string_view checksum_token =
      util::expect_field(lines.back(), "checksum ");
  const std::size_t body_end = text.rfind("checksum ");
  PS_REQUIRE(body_end != std::string_view::npos, "missing checksum line");
  std::uint32_t expected = 0;
  {
    const auto [ptr, ec] = std::from_chars(
        checksum_token.data(),
        checksum_token.data() + checksum_token.size(), expected, 16);
    PS_REQUIRE(ec == std::errc{} &&
                   ptr == checksum_token.data() + checksum_token.size(),
               "non-hex checksum field");
  }
  PS_REQUIRE(crc32(text.substr(0, body_end)) == expected,
             "snapshot checksum mismatch (torn or corrupted write)");

  const bool v4 = lines[0] == "powerstack-snapshot v4";
  const bool v3 = v4 || lines[0] == "powerstack-snapshot v3";
  const bool v2 = v3 || lines[0] == "powerstack-snapshot v2";
  PS_REQUIRE(v2 || lines[0] == "powerstack-snapshot v1",
             "not a v1/v2/v3/v4 snapshot");
  DaemonSnapshot snapshot;
  snapshot.system_budget_watts =
      util::parse_watts(util::expect_field(lines[1], "budget "), "budget");
  PS_REQUIRE(snapshot.system_budget_watts > 0.0,
             "snapshot budget must be positive");
  std::size_t next = 2;
  if (v2) {
    snapshot.budget_epoch = util::parse_u64(
        util::expect_field(lines[next], "budget_epoch "), "budget_epoch");
    ++next;
  }
  if (v4) {
    snapshot.fence_epoch =
        util::parse_u64(util::expect_field(lines[next], "fence "), "fence");
    PS_REQUIRE(snapshot.fence_epoch != 0,
               "v4 snapshot fence must be non-zero");
    ++next;
  }
  const std::string_view barrier = util::expect_field(lines[next], "barrier ");
  PS_REQUIRE(barrier == "0" || barrier == "1", "barrier must be 0 or 1");
  snapshot.launch_barrier_met = barrier == "1";
  ++next;
  snapshot.allocations = util::parse_u64(
      util::expect_field(lines[next], "allocations "), "allocations");
  ++next;
  const std::uint64_t job_count =
      util::parse_u64(util::expect_field(lines[next], "jobs "), "jobs");
  ++next;
  const std::uint64_t lines_per_job = v3 ? 4 : 3;
  PS_REQUIRE(lines.size() == next + 1 + lines_per_job * job_count,
             "snapshot job count disagrees with its body");

  std::set<std::string_view> seen;
  // Sized by the body, not by the (possibly hostile) count.
  snapshot.jobs.reserve((lines.size() - next - 1) / lines_per_job);
  for (std::uint64_t j = 0; j < job_count; ++j) {
    const std::size_t base = next + lines_per_job * j;
    const std::string_view name = util::expect_field(lines[base], "job ");
    PS_REQUIRE(!name.empty(), "empty job name");
    PS_REQUIRE(seen.insert(name).second,
               "duplicate job '" + std::string(name) + "' in snapshot");
    SnapshotJob job;
    job.name = name;
    job.sequence = util::parse_u64(
        util::expect_field(lines[base + 1], "sequence "), "sequence");
    job.caps_watts = util::parse_watts_list(
        util::expect_field(lines[base + 2], "caps"), "caps");
    PS_REQUIRE(!job.caps_watts.empty(),
               "job '" + job.name + "' has no caps");
    if (v3) {
      job.gpu_caps_watts = util::parse_watts_list(
          util::expect_field(lines[base + 3], "gpu_caps"), "gpu_caps");
      PS_REQUIRE(job.gpu_caps_watts.empty() ||
                     job.gpu_caps_watts.size() == job.caps_watts.size(),
                 "job '" + job.name +
                     "' GPU caps disagree with its host count");
    }
    snapshot.jobs.push_back(std::move(job));
  }
  return snapshot;
}

void save_snapshot(const std::string& path,
                   const DaemonSnapshot& snapshot) {
  PS_REQUIRE(!path.empty(), "snapshot path must not be empty");
  const std::string body = serialize(snapshot);
  const std::string temp = path + ".tmp";
  {
    const int fd = ::open(temp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0) {
      throw Error("cannot open snapshot temp file " + temp);
    }
    std::size_t written = 0;
    while (written < body.size()) {
      const ssize_t n =
          ::write(fd, body.data() + written, body.size() - written);
      if (n < 0) {
        ::close(fd);
        ::unlink(temp.c_str());
        throw Error("cannot write snapshot temp file " + temp);
      }
      written += static_cast<std::size_t>(n);
    }
    // The rename below is only atomic on durable contents.
    ::fsync(fd);
    ::close(fd);
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    throw Error("cannot rename snapshot into place at " + path);
  }
}

std::optional<DaemonSnapshot> load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  try {
    return parse_snapshot(contents.str());
  } catch (const Error&) {
    return std::nullopt;  // corrupt snapshot: restart cold, do not crash
  }
}

}  // namespace ps::net
