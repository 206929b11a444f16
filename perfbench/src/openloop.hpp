// The open-loop arithmetic of the daemon workloads, kept free of I/O so
// the self-tests can drive it with synthetic schedules.
//
// Items of one stream are due at fixed times (index / rate after the
// schedule starts), whether or not the daemon keeps up.  A warning's
// latency runs from the due time of its trigger — the first item of its
// stream whose event time is >= the warning's issued_at — until the
// subscriber received it.  The same rule covers tick-fired warnings,
// whose issued_at need not coincide with any item.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

/// One warning as the subscriber saw it.
struct Receipt {
  dml::TimeSec issued_at = 0;
  /// Seconds after the schedule started.
  double received_s = 0.0;
};

/// Latency in milliseconds of each receipt.  `item_times` are the
/// stream's item event times in send order (non-decreasing) and
/// `item_due_s` their due times.  A warning issued after the last item
/// is attributed to the last item.
std::vector<double> warning_latencies_ms(
    const std::vector<dml::TimeSec>& item_times,
    const std::vector<double>& item_due_s,
    const std::vector<Receipt>& receipts);

/// How late the generator ran: one value (ms) per frame, in send order.
struct Lateness {
  double p99_ms = 0.0;
  /// Median lateness of the last quarter of frames minus that of the
  /// first quarter: > 0 when the generator fell further behind as the
  /// run went on.
  double growth_ms = 0.0;
};
Lateness summarize_lateness(const std::vector<double>& late_ms);

/// One rung of the offered-rate ladder.
struct Rung {
  double offered_per_s = 0.0;
  double achieved_per_s = 0.0;
  double latency_p99_ms = 0.0;
  double late_growth_ms = 0.0;
};

/// The highest-offered rung whose p99 latency is under `limit_ms` and
/// whose generator lateness grew by no more than `growth_limit_ms`;
/// nullopt when no rung qualifies.
std::optional<std::size_t> sustained_rung(const std::vector<Rung>& rungs,
                                          double limit_ms,
                                          double growth_limit_ms);

}  // namespace perfbench
