#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

void Outcome::fail(std::string problem) {
  checks_passed = false;
  problems.push_back(std::move(problem));
}

void Outcome::record(const Measured& measured) {
  latency_p50_ms = median(measured.latency_ms);
  latency_samples = measured.latency_ms.size();
  metrics = {
      {"setup_s", median(measured.setup_s), "s"},
      {"throughput_per_s", measured.work_units / measured.wall_s, "1/s"},
      {"latency_p50_ms", latency_p50_ms, "ms"},
      {"latency_p90_ms", quantile(measured.latency_ms, 0.9), "ms"},
      {"cpu_ms_per_op",
       measured.cpu_s * 1e3 / static_cast<double>(measured.ops), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    throw std::invalid_argument("quantile of no samples");
  }
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress(std::array<std::uint32_t, 8>& state,
              const unsigned char* block) {
  std::array<std::uint32_t, 64> w{};
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::array<std::uint32_t, 8> v = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
    const std::uint32_t choose = (v[4] & v[5]) ^ (~v[4] & v[6]);
    const std::uint32_t t1 = v[7] + s1 + choose + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
    const std::uint32_t majority = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
    const std::uint32_t t2 = s0 + majority;
    v[7] = v[6];
    v[6] = v[5];
    v[5] = v[4];
    v[4] = v[3] + t1;
    v[3] = v[2];
    v[2] = v[1];
    v[1] = v[0];
    v[0] = t1 + t2;
  }
  for (int i = 0; i < 8; ++i) {
    state[i] += v[i];
  }
}

}  // namespace

std::string sha256_hex(std::string_view bytes) {
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t whole = bytes.size() / 64;
  for (std::size_t i = 0; i < whole; ++i) {
    compress(state, data + 64 * i);
  }
  // Padding: 0x80, zeros, then the message length in bits (big-endian).
  std::array<unsigned char, 128> tail{};
  const std::size_t rest = bytes.size() - 64 * whole;
  std::memcpy(tail.data(), data + 64 * whole, rest);
  tail[rest] = 0x80;
  const std::size_t tail_size = rest + 1 + 8 <= 64 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(bytes.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_size - 1 - i] = static_cast<unsigned char>(bits >> (8 * i));
  }
  compress(state, tail.data());
  if (tail_size == 128) {
    compress(state, tail.data() + 64);
  }
  std::string hex;
  hex.reserve(64);
  for (const std::uint32_t word : state) {
    char buffer[9];
    std::snprintf(buffer, sizeof(buffer), "%08x", word);
    hex += buffer;
  }
  return hex;
}

void append_bits(std::string& out, double value) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &value, sizeof(double));
  out.append(bytes, sizeof(double));
}

void append_bits(std::string& out, std::uint64_t value) {
  char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  out.append(bytes, sizeof(value));
}

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_s() const { return seconds_since(origin_); }

std::vector<Tracer::Open>& Tracer::open_stack() {
  thread_local std::vector<Open> stack;
  return stack;
}

std::uint64_t Tracer::begin(std::string_view name, std::uint64_t parent) {
  std::vector<Open>& stack = open_stack();
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
  }
  stack.push_back(Open{id, stack.empty() ? parent : stack.back().id,
                       std::string(name), now_s()});
  return id;
}

void Tracer::end() {
  std::vector<Open>& stack = open_stack();
  if (stack.empty()) {
    return;  // Scope pairs every end with a begin; nothing to close.
  }
  const double end_s = now_s();
  Open open = std::move(stack.back());
  stack.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{open.id, open.parent, std::move(open.name),
                        open.start_s, end_s});
}

std::vector<Tracer::Span> Tracer::spans(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(span);
    }
  }
  return out;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans(name)) {
    out.push_back(span.ms());
  }
  return out;
}

double Tracer::child_ms(std::uint64_t parent, std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == parent && span.name == name) {
      total += span.ms();
    }
  }
  return total;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write span file " + path);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  span.name.c_str(), span.start_s, span.end_s);
    out << line;
  }
}

}  // namespace perfbench
