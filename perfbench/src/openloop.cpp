#include "openloop.hpp"

#include <algorithm>

#include "bench.hpp"

namespace perfbench {

std::vector<double> warning_latencies_ms(
    const std::vector<dml::TimeSec>& item_times,
    const std::vector<double>& item_due_s,
    const std::vector<Receipt>& receipts) {
  std::vector<double> latencies;
  if (item_times.empty()) return latencies;
  latencies.reserve(receipts.size());
  for (const Receipt& receipt : receipts) {
    const auto it = std::lower_bound(item_times.begin(), item_times.end(),
                                     receipt.issued_at);
    const std::size_t trigger =
        it == item_times.end()
            ? item_times.size() - 1
            : static_cast<std::size_t>(it - item_times.begin());
    latencies.push_back((receipt.received_s - item_due_s[trigger]) * 1e3);
  }
  return latencies;
}

Lateness summarize_lateness(const std::vector<double>& late_ms) {
  Lateness result;
  if (late_ms.empty()) return result;
  result.p99_ms = quantile(late_ms, 0.99);
  const std::size_t quarter = std::max<std::size_t>(1, late_ms.size() / 4);
  const std::vector<double> head(late_ms.begin(),
                                 late_ms.begin() + quarter);
  const std::vector<double> tail(late_ms.end() - quarter, late_ms.end());
  result.growth_ms = median(tail) - median(head);
  return result;
}

std::optional<std::size_t> sustained_rung(const std::vector<Rung>& rungs,
                                          double limit_ms,
                                          double growth_limit_ms) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& rung = rungs[i];
    if (rung.latency_p99_ms >= limit_ms) continue;
    if (rung.late_growth_ms > growth_limit_ms) continue;
    if (!best || rung.offered_per_s > rungs[*best].offered_per_s) best = i;
  }
  return best;
}

}  // namespace perfbench
