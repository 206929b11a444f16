// ServingCore — the "predict" half of the serving core: owns the
// predictor in force, adopts retrained snapshots published by the
// RetrainScheduler, and drives the PD expert's clock ticks.  This is the
// single implementation of the per-event serving loop; OnlineEngine runs
// one, ShardedEngine runs one per shard, and DynamicDriver replays
// through OnlineEngine.
//
// Two tick-anchoring disciplines are supported:
//  - kInterval (replay parity): ticks re-anchor at the first event after
//    each snapshot adoption, exactly the batch driver's per-interval
//    `Predictor::run` semantics — replaying a log through the engine
//    reproduces DynamicDriver's warning stream bit for bit.
//  - kAbsolute (sharded serving): ticks fire on the fixed grid
//    first-adoption + k * clock_tick regardless of adoptions or event
//    arrivals, so every shard of a partitioned stream ticks at the same
//    instants — the invariant that makes an N-shard run produce the
//    same warning multiset as a single shard.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "online/retraining.hpp"
#include "predict/predictor.hpp"

namespace dml::online {

class ServingCore {
 public:
  enum class TickAnchor { kInterval, kAbsolute };

  struct Options {
    /// PD self-check cadence; 0 disables ticks.
    DurationSec clock_tick = 300;
    predict::PredictorOptions predictor;
    TickAnchor tick_anchor = TickAnchor::kInterval;
    /// Ticks fire every `window` of the adopted snapshot instead of
    /// clock_tick (the adaptive-window driver's replay semantics).
    bool tick_follows_window = false;
    /// Trailing event-time span buffered for warming fresh predictors at
    /// adoption: the largest window a build could adopt.
    DurationSec warm_retention = 0;
  };

  explicit ServingCore(Options options);

  /// Adopts a finished build at build.activate_at: publishes the
  /// snapshot, rebuilds the predictor, warms its window state on the
  /// buffered trailing events in [activate_at - window, activate_at)
  /// (warm-up warnings are discarded) and re-anchors or preserves the
  /// tick grid per the anchoring discipline.  In kAbsolute mode, ticks
  /// still pending before the activation instant fire first (into
  /// `out`).
  void adopt(const SnapshotBuild& build, std::vector<predict::Warning>& out);

  /// Static-mode boundary: same rules, fresh predictor (window state
  /// rebuilt, deduplication cleared, ticks re-anchored) — the batch
  /// driver's fresh-Predictor-per-interval semantics.
  void refresh(TimeSec at, std::vector<predict::Warning>& out);

  /// Fires every tick due strictly before event time t.  At end of
  /// stream (kAbsolute) this flushes every shard's grid to the same
  /// global instant.
  void advance(TimeSec t, std::vector<predict::Warning>& out);

  /// Serves a time-ordered run of events (a single event is a span of
  /// one): per event, the `serving.observe` failpoint, advance(event
  /// time), predictor observation and warm-buffer upkeep.  A throw
  /// mid-span leaves the events before the faulting one fully served
  /// (DESIGN.md §13).
  void observe(std::span<const bgl::Event> events,
               std::vector<predict::Warning>& out);

  /// Snapshot currently in force (empty_snapshot before first adoption).
  const meta::RepositorySnapshot& snapshot() const { return snapshot_; }
  DurationSec window() const { return window_; }

 private:
  /// adopt()/refresh(): a fresh predictor at `at`, on `build`'s rules
  /// when given, else on the rules in force.
  void rebuild(TimeSec at, const SnapshotBuild* build,
               std::vector<predict::Warning>& out);
  DurationSec tick_interval() const {
    return options_.tick_follows_window ? window_ : options_.clock_tick;
  }

  Options options_;
  meta::RepositorySnapshot snapshot_;
  DurationSec window_;
  std::unique_ptr<predict::Predictor> predictor_;
  std::optional<TimeSec> next_tick_;
  /// Scratch for adoption warm-up (events copied from the buffer) and
  /// for its discarded warm-up warnings.
  std::vector<bgl::Event> warm_scratch_;
  std::vector<predict::Warning> discard_;
  /// Trailing events within warm_retention of the latest.
  std::deque<bgl::Event> warm_buffer_;
};

}  // namespace dml::online
