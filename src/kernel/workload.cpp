#include "kernel/workload.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ps::kernel {

void WorkloadConfig::validate() const {
  PS_REQUIRE(intensity >= 0.0, "intensity cannot be negative");
  PS_REQUIRE(waiting_fraction >= 0.0 && waiting_fraction < 1.0,
             "waiting fraction must be in [0, 1)");
  PS_REQUIRE(imbalance >= 1.0, "imbalance multiplier must be >= 1");
  PS_REQUIRE(gigabytes_per_iteration > 0.0,
             "per-iteration data movement must be positive");
  PS_REQUIRE(gpu_gigabytes_per_iteration >= 0.0,
             "GPU data movement cannot be negative");
  PS_REQUIRE(gpu_intensity >= 0.0, "GPU intensity cannot be negative");
  PS_REQUIRE(gpu_occupancy > 0.0 && gpu_occupancy <= 1.0,
             "GPU occupancy must be in (0, 1]");
}

namespace {
std::string format_intensity(double intensity) {
  // Render 0.25 as "0.25" but 8.0 as "8".
  if (intensity == std::floor(intensity)) {
    return std::to_string(static_cast<long long>(intensity));
  }
  return ps::util::format_fixed(intensity, 2);
}
}  // namespace

std::string WorkloadConfig::name() const {
  std::ostringstream out;
  out << hw::to_string(vector_width) << "-i" << format_intensity(intensity)
      << "-w" << static_cast<int>(std::lround(waiting_fraction * 100.0))
      << "-x" << static_cast<int>(std::lround(imbalance));
  return out.str();
}

std::string WorkloadConfig::description() const {
  std::ostringstream out;
  out << format_intensity(intensity) << " FLOPs/byte";
  if (waiting_fraction > 0.0) {
    out << ", " << static_cast<int>(std::lround(waiting_fraction * 100.0))
        << "% waiting ranks";
  } else {
    out << ", no waiting ranks";
  }
  if (imbalance > 1.0) {
    out << ", " << static_cast<int>(std::lround(imbalance)) << "x imbalance";
  }
  out << ", " << hw::to_string(vector_width);
  return out.str();
}

double critical_gigabytes(const WorkloadConfig& config) {
  config.validate();
  return config.gigabytes_per_iteration * config.imbalance;
}

WorkloadConfig parse_workload(std::string_view name) {
  const std::vector<std::string> pieces = util::split(name, '-');
  PS_REQUIRE(pieces.size() == 4,
             "workload name must look like 'ymm-i8-w50-x2'");
  WorkloadConfig config;
  if (pieces[0] == "scalar") {
    config.vector_width = hw::VectorWidth::kScalar;
  } else if (pieces[0] == "xmm") {
    config.vector_width = hw::VectorWidth::kXmm128;
  } else if (pieces[0] == "ymm") {
    config.vector_width = hw::VectorWidth::kYmm256;
  } else {
    throw InvalidArgument("unknown vector width '" + pieces[0] + "'");
  }
  PS_REQUIRE(pieces[1].size() > 1 && pieces[1][0] == 'i',
             "second field must be 'i<intensity>'");
  PS_REQUIRE(pieces[2].size() > 1 && pieces[2][0] == 'w',
             "third field must be 'w<waiting percent>'");
  PS_REQUIRE(pieces[3].size() > 1 && pieces[3][0] == 'x',
             "fourth field must be 'x<imbalance>'");
  const auto number = [](std::string_view piece, double& value) {
    return util::read_finite(piece.substr(1), value);
  };
  double waiting_percent = 0.0;
  if (!number(pieces[1], config.intensity) ||
      !number(pieces[2], waiting_percent) ||
      !number(pieces[3], config.imbalance)) {
    throw InvalidArgument("workload name '" + std::string(name) +
                          "' has non-numeric fields");
  }
  config.waiting_fraction = waiting_percent / 100.0;
  config.validate();
  return config;
}

}  // namespace ps::kernel
