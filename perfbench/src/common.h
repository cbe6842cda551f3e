// Shared plumbing for the benchmark workloads: options, the result record
// printed as the last stdout line, timing and order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Path of this executable (dist_train re-executes it as a rank).
  std::string self;
  /// Directory for scratch files (checkpoints, trace JSON).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds end-to-end metrics on an
/// untraced run and per-layer metrics on a traced one.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed output check (printed to stderr, run marked incorrect).
  void check(bool ok, const std::string& what);
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process and its reaped children, MiB.
double peak_rss_mib();

/// Seed-derived 64-bit stream, one per purpose, so adding a draw for one
/// input never shifts another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

}  // namespace perfbench
