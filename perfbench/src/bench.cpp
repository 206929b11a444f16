#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Outcome::note(std::string key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  note(std::move(key), std::string(buffer));
}

void Outcome::check(const std::string& what, std::uint64_t mismatches) {
  if (mismatches == 0) return;
  failed += mismatches;
  check_failures.push_back(what + ": " + std::to_string(mismatches) +
                           " mismatch(es)");
}

double ok_frac(const Outcome& outcome) {
  if (outcome.attempted == 0) return 0.0;
  return 1.0 - static_cast<double>(outcome.failed) /
                   static_cast<double>(outcome.attempted);
}

namespace {

using WarningKey = std::tuple<dml::TimeSec, dml::TimeSec, long long,
                              long long, std::uint64_t, int>;

WarningKey key_of(const dml::predict::Warning& w) {
  return {w.issued_at,
          w.deadline,
          w.category ? static_cast<long long>(*w.category) : -1,
          w.location ? static_cast<long long>(w.location->packed()) : -1,
          w.rule_id,
          static_cast<int>(w.source)};
}

std::vector<WarningKey> sorted_keys(
    const std::vector<dml::predict::Warning>& warnings) {
  std::vector<WarningKey> keys;
  keys.reserve(warnings.size());
  for (const auto& w : warnings) keys.push_back(key_of(w));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::uint64_t proc_status_kb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stoull(line.substr(prefix.size()));
    }
  }
  return 0;
}

}  // namespace

std::uint64_t multiset_mismatch(const std::vector<dml::predict::Warning>& a,
                                const std::vector<dml::predict::Warning>& b) {
  const auto ka = sorted_keys(a);
  const auto kb = sorted_keys(b);
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint64_t mismatches = 0;
  while (i < ka.size() || j < kb.size()) {
    if (j == kb.size() || (i < ka.size() && ka[i] < kb[j])) {
      ++mismatches;
      ++i;
    } else if (i == ka.size() || kb[j] < ka[i]) {
      ++mismatches;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return mismatches;
}

std::uint64_t peak_rss_bytes() { return proc_status_kb("VmHWM") * 1024; }

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

}  // namespace perfbench
