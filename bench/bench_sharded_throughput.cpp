// Sharded serving core: (a) consume() latency stays bounded when
// retraining moves off the serving path — the synchronous engine's
// worst-case consume grows with the training-set size (the boundary call
// trains inline), the asynchronous engine's does not; (b) partitioning
// the stream across shards scales serving throughput while leaving the
// warning stream — and therefore the confusion counts — bit-identical.
//
// On a single-core host the throughput ratio reflects scheduling, not
// speedup; the numbers are reported, the invariant that is *checked* is
// the identical confusion counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "online/engine.hpp"
#include "online/evaluation.hpp"
#include "online/sharded_engine.hpp"
#include "support/bench_logs.hpp"

namespace {

using namespace dml;
using Clock = std::chrono::steady_clock;

constexpr DurationSec kWindow = 300;
constexpr int kTrainWeeks = 8;
constexpr int kRetrainWeeks = 4;
constexpr int kReplayWeeks = 24;

std::vector<bgl::Event> replay_slice(const logio::EventStore& store) {
  const TimeSec origin = store.first_time();
  const auto span =
      store.between(origin, origin + kReplayWeeks * kSecondsPerWeek);
  return {span.begin(), span.end()};
}

online::OnlineEngineConfig engine_config(int training_weeks, bool async) {
  online::OnlineEngineConfig config;
  config.prediction_window = kWindow;
  config.clock_tick = kWindow;
  config.retrain_interval = kRetrainWeeks * kSecondsPerWeek;
  config.initial_training_delay = training_weeks * kSecondsPerWeek;
  config.training_span = training_weeks * kSecondsPerWeek;
  config.min_training_events = 1;
  config.async_retrain = async;
  // Opportunistic adoption: consume() never waits on a build, which is
  // exactly the latency bound being measured.
  config.adoption_lag = 0;
  return config;
}

struct LatencyReport {
  double max_us = 0.0;
  double mean_us = 0.0;
  std::uint64_t retrainings = 0;
};

LatencyReport measure_consume_latency(const std::vector<bgl::Event>& events,
                                      int training_weeks, bool async) {
  online::OnlineEngine engine(engine_config(training_weeks, async),
                              [](const predict::Warning&) {});
  LatencyReport report;
  double total = 0.0;
  for (const auto& event : events) {
    const auto start = Clock::now();
    engine.consume_batch({&event, 1});
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    report.max_us = std::max(report.max_us, us);
    total += us;
  }
  engine.finish();
  report.mean_us = events.empty() ? 0.0 : total / events.size();
  report.retrainings = engine.stats().retrainings;
  return report;
}

struct ShardedRun {
  double wall_seconds = 0.0;
  stats::ConfusionCounts counts;
  online::ShardedEngine::SessionStats stats;
  std::vector<online::ShardedEngine::ShardReport> reports;
};

ShardedRun run_sharded(const logio::EventStore& store,
                       const std::vector<bgl::Event>& events,
                       std::size_t shards) {
  online::ShardedEngineConfig config;
  config.shards = shards;
  config.engine = engine_config(kTrainWeeks, /*async=*/true);
  // Deterministic event-time adoption so every shard count replays the
  // same schedule.
  config.engine.adoption_lag = kWindow;

  std::vector<predict::Warning> warnings;
  ShardedRun run;
  const auto start = Clock::now();
  online::ShardedEngine engine(
      config, [&](const predict::Warning& w) { warnings.push_back(w); });
  for (const auto& event : events) engine.consume_batch({&event, 1});
  run.stats = engine.finish();
  run.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  run.reports = engine.shard_reports();

  const TimeSec serve_from =
      store.first_time() + kTrainWeeks * kSecondsPerWeek;
  std::vector<bgl::Event> test_events;
  for (const auto& event : events) {
    if (event.time >= serve_from) test_events.push_back(event);
  }
  std::vector<predict::Warning> scored;
  for (const auto& w : warnings) {
    if (w.issued_at >= serve_from) scored.push_back(w);
  }
  run.counts =
      predict::evaluate_predictions(test_events, scored, kWindow).overall;
  return run;
}

}  // namespace

int main() {
  bench::print_header(
      "Sharded serving core: consume latency and shard scaling",
      "non-blocking retraining bounds the serving path's worst-case "
      "latency independent of training-set size; midplane sharding "
      "scales throughput with identical confusion counts");

  const auto& store = bench::sdsc_store();
  const auto events = replay_slice(store);
  std::printf("replaying %zu events (%d weeks of SDSC)\n\n", events.size(),
              kReplayWeeks);

  std::printf("consume() latency vs training span (sync trains inline at "
              "the boundary; async builds on the shared pool):\n");
  std::printf("  %-10s %-6s %12s %12s %6s\n", "train-span", "mode", "max-us",
              "mean-us", "builds");
  for (const int weeks : {4, 8, 16}) {
    for (const bool async : {false, true}) {
      const auto report = measure_consume_latency(events, weeks, async);
      std::printf("  %-10d %-6s %12.0f %12.2f %6llu\n", weeks,
                  async ? "async" : "sync", report.max_us, report.mean_us,
                  static_cast<unsigned long long>(report.retrainings));
    }
  }

  std::printf("\nshard scaling (async retraining, deterministic adoption):\n");
  std::printf("  %-6s %10s %12s %8s %8s %8s  %s\n", "shards", "wall-s",
              "events/s", "tp", "fp", "fn", "counts");
  stats::ConfusionCounts baseline;
  double baseline_wall = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const auto run = run_sharded(store, events, shards);
    if (shards == 1) {
      baseline = run.counts;
      baseline_wall = run.wall_seconds;
    }
    const bool identical = run.counts == baseline;
    std::printf("  %-6zu %10.2f %12.0f %8llu %8llu %8llu  %s\n", shards,
                run.wall_seconds,
                run.wall_seconds > 0
                    ? static_cast<double>(run.stats.events_after_filtering) /
                          run.wall_seconds
                    : 0.0,
                static_cast<unsigned long long>(run.counts.true_positives),
                static_cast<unsigned long long>(run.counts.false_positives),
                static_cast<unsigned long long>(run.counts.false_negatives),
                identical ? "== 1-shard" : "DIVERGED");
    if (shards > 1 && baseline_wall > 0) {
      std::printf("         speedup vs 1 shard: %.2fx\n",
                  baseline_wall / run.wall_seconds);
    }
    for (const auto& report : run.reports) {
      std::printf("         shard %zu: %llu events, %llu warnings, "
                  "busy %.2f s\n",
                  report.index,
                  static_cast<unsigned long long>(report.events),
                  static_cast<unsigned long long>(report.warnings),
                  report.busy_seconds);
    }
  }
  return 0;
}
