// Shared vocabulary of the end-to-end benchmark: clocks, order
// statistics, the metric list a workload reports, and the warning
// multiset comparison every output check uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "predict/predictor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
double median(std::vector<double> values);

/// Nearest-rank quantile of `values`, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.  `attempted` counts operations
/// offered (input items plus expected warnings); `failed` counts the
/// ones that failed: skipped records, refused frames, dropped warnings
/// and warnings missing from or extra to the oracle.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed output check; any entry makes the run fail.
  std::vector<std::string> check_failures;
  /// Workload sizes and thread layout, echoed with the fingerprint.
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  void note(std::string key, double value);
  /// Records `mismatches` oracle disagreements under `what`.
  void check(const std::string& what, std::uint64_t mismatches);
};

/// 1 - failed / attempted: the share of operations that succeeded.
double ok_frac(const Outcome& outcome);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space for generated inputs (the on-disk repository).
  std::string work_dir;
  /// Where a traced run writes the spans of its last traced pass.
  std::string spans_path;
};

/// Number of warnings in `a` but not in `b` plus those in `b` but not
/// in `a`, as multisets over every Warning field.
std::uint64_t multiset_mismatch(const std::vector<dml::predict::Warning>& a,
                                const std::vector<dml::predict::Warning>& b);

/// Peak resident set of the process since the last reset_peak_rss(), in
/// bytes (VmHWM).  0 when /proc is unavailable.
std::uint64_t peak_rss_bytes();
/// Resets VmHWM to the current RSS (writes 5 to /proc/self/clear_refs);
/// returns false where the kernel does not allow it.
bool reset_peak_rss();

/// Workload entry points (one per file).
Outcome run_replay_text(const Options& options);
Outcome run_retrain_chain(const Options& options);
Outcome run_daemon_records(const Options& options);
Outcome run_daemon_events(const Options& options);

/// The benchmark's own logic tests; returns the number of failures.
int run_self_tests();

}  // namespace perfbench
