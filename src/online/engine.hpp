// OnlineEngine: the deployable form of the framework.  Feed it raw RAS
// records (or pre-categorized events) as they arrive; it preprocesses
// them inline (preprocess::StreamingPipeline), retrains the meta-learner
// on schedule (RetrainScheduler — synchronously, or on the shared pool
// with an RCU snapshot swap so consume() never blocks on training), and
// invokes a callback for every failure warning — the runtime
// configuration of Figure 1 as a single embeddable object.
//
//   online::OnlineEngine engine(config, [](const predict::Warning& w) {
//     page_the_operator(w);
//   });
//   while (auto record = reader.next()) engine.consume(*record);
//
// A single record or event is a span of one: every entry point feeds the
// same per-event path.
//
// DynamicDriver::run() replays a whole log through this same object, so
// the train/predict/retrain loop exists exactly once.
#pragma once

#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "online/retraining.hpp"
#include "online/serving.hpp"
#include "preprocess/streaming_pipeline.hpp"
#include "storage/event_repository.hpp"

namespace dml::online {

/// One graceful-degradation incident, in a form reports can print: the
/// serving side kept going, this records what it gave up.
struct DegradationEvent {
  enum class Kind {
    /// A retraining boundary was abandoned after every build attempt
    /// failed; the last good snapshot stayed in force.
    kRetrainFailure,
    /// A shard worker threw; the shard drained without serving from
    /// then on, its watermark still advancing so the merged stream
    /// never stalled.
    kShardQuarantined,
    /// Summary entry: input records dropped/skipped as corrupt or by
    /// fault injection (counted, not individually logged).
    kRecordsSkipped,
  };

  Kind kind = Kind::kRetrainFailure;
  /// Event time of the incident (boundary, quarantine watermark, or end
  /// of stream for summaries).
  TimeSec at = 0;
  /// Build attempts spent (kRetrainFailure) or records lost
  /// (kRecordsSkipped).
  std::size_t count = 0;
  std::string detail;
};

std::string_view to_string(DegradationEvent::Kind kind);

/// The engine config: the retraining policy (prediction window, cadence,
/// training regime, learners — see RetrainPolicy) plus the serving side.
struct OnlineEngineConfig : RetrainPolicy {
  /// Filtering threshold for inline preprocessing of raw records.
  DurationSec filter_threshold = 300;
  /// PD self-check cadence; 0 disables ticks.
  DurationSec clock_tick = 300;
  /// Tick on the absolute grid first-adoption + k * clock_tick instead
  /// of re-anchoring per adoption; see ServingCore::TickAnchor.
  bool absolute_ticks = false;
  /// Time the serving path (SessionStats::serving_seconds).  Off by
  /// default: the per-event clock reads are cheap but not free.
  bool profile = false;
};

/// The serving half of the engine config (ServingCore's options).
ServingCore::Options serving_options(const OnlineEngineConfig& config);

class OnlineEngine {
 public:
  using WarningCallback = std::function<void(const predict::Warning&)>;

  OnlineEngine(OnlineEngineConfig config, WarningCallback on_warning);

  /// Joins any in-flight retraining.
  ~OnlineEngine();

  /// Feeds a time-ordered run of raw records, preprocessed inline
  /// (categorize + temporal + spatial compression).  A throw mid-span
  /// (a `preprocess.push` or serving failpoint) leaves exactly the
  /// records before the faulting one consumed.
  void consume(std::span<const bgl::RasRecord> records);
  void consume(const bgl::RasRecord& record) { consume({&record, 1}); }

  /// Feeds a time-ordered run of already-unique categorized events (a
  /// single event is a span of one).  Retraining boundaries, adoptions
  /// and ticks fire between any two events of the span, and a serving
  /// failpoint thrown mid-span leaves exactly the prefix consumed
  /// (DESIGN.md §13).
  void consume_batch(std::span<const bgl::Event> events);

  /// Restart path: brings a freshly constructed engine to the exact
  /// state a live engine would hold just before serving event time
  /// `serve_from`, reading history straight from the repository.  The
  /// events in [repo.first_time(), serve_from) are replayed through the
  /// live path — every boundary fires, every snapshot is adopted, every
  /// event is served — and boundaries strictly before serve_from are
  /// run; warnings issued before serve_from are suppressed, for good.
  /// Warnings emitted from serve_from on are byte-identical to an
  /// uninterrupted replay, and the session's accounting starts at zero
  /// (the replay counts only as SessionStats::cold_start_events).
  ///
  /// Must be called on a fresh engine (nothing consumed) with
  /// synchronous retraining; categorized-event repositories only.
  void cold_start(const storage::EventRepository& repo, TimeSec serve_from);

  /// Advances the engine clock without an event: fires any due
  /// retraining boundary, adopts finished builds, and runs ticks due
  /// strictly before t.  The driver uses this to pin boundaries at its
  /// interval edges even across event gaps.
  void advance_to(TimeSec t);

  /// Forces a retraining at the current event time: joins the in-flight
  /// build if one is running (async), otherwise schedules and completes
  /// one synchronously ("schedule + join").
  void retrain_now();

  /// End of stream: joins and adopts any in-flight build.
  void finish();

  /// Rules currently in force (empty before the first training).
  const meta::KnowledgeRepository& rules() const {
    return *serving_.snapshot();
  }
  /// Pins the snapshot in force — stays valid (and immutable) across
  /// later retrainings.
  meta::RepositorySnapshot rules_snapshot() const {
    return serving_.snapshot();
  }

  /// Every adopted retraining, in adoption order (churn, timings,
  /// window — the per-interval bookkeeping the driver reports).
  const std::vector<SnapshotBuild>& retrain_log() const {
    return retrain_log_;
  }

  /// Prediction window in force (moves only in adaptive mode).
  DurationSec current_window() const { return serving_.window(); }

  struct SessionStats {
    std::uint64_t records_consumed = 0;
    std::uint64_t events_after_filtering = 0;
    std::uint64_t failures_seen = 0;
    std::uint64_t warnings_issued = 0;
    std::uint64_t retrainings = 0;
    std::size_t history_size = 0;
    /// Input units dropped or skipped instead of served (corrupt
    /// records, drop failpoints) — the counted-divergence budget of a
    /// degraded run.
    std::uint64_t records_rejected = 0;
    /// Retraining boundaries abandoned after every build attempt threw.
    std::uint64_t retrain_failures = 0;
    /// Shard workers stopped by an exception (ShardedEngine only).
    std::uint64_t shards_quarantined = 0;
    /// Wall seconds spent building adopted rule sets (training +
    /// revision, summed over the retrain log; measured on the build
    /// thread, so async builds overlap serving).
    double retrain_build_seconds = 0.0;
    /// Per-learner decomposition of retrain_build_seconds' training part
    /// (summed over the retrain log) — the per-learner rows of the
    /// --profile retrain-build report.
    meta::TrainTimes retrain_train_times;
    /// Revision part of retrain_build_seconds.
    double retrain_revise_seconds = 0.0;
    /// Wall seconds inside the serving path (ticks + per-event
    /// observation).  Only measured when OnlineEngineConfig::profile is
    /// set; 0 otherwise.
    double serving_seconds = 0.0;
    /// Events replayed by cold_start() before the session began (not
    /// counted in records_consumed).
    std::uint64_t cold_start_events = 0;
    /// Log-I/O accounting of the backing EventRepository, filled by
    /// owners that replay from one (DynamicDriver::run, `dmlfp run
    /// --repo`); all zero for in-memory replays.  The map/read split is
    /// the "mmap vs read time" row of the --profile table.
    std::uint64_t log_bytes_read = 0;
    std::uint64_t log_segments_opened = 0;
    double log_map_seconds = 0.0;
    double log_read_seconds = 0.0;
  };
  SessionStats stats() const;

  /// Degradation incidents so far (abandoned retrain boundaries).
  std::vector<DegradationEvent> degradation_log() const;

 private:
  /// The control plane at event time t (RetrainScheduler::step, then
  /// the refresh/adoption it asks for), then the ticks due before t.
  void step(TimeSec t);
  void observe(const bgl::Event& event);
  void adopt(SnapshotBuild build);
  void emit();

  OnlineEngineConfig config_;
  WarningCallback on_warning_;

  preprocess::StreamingPipeline pipeline_;
  RetrainScheduler scheduler_;
  ServingCore serving_;
  std::vector<SnapshotBuild> retrain_log_;
  std::vector<predict::Warning> scratch_;

  TimeSec now_ = 0;
  /// Warnings issued before this instant are never emitted (cold_start).
  TimeSec suppress_before_ = std::numeric_limits<TimeSec>::min();
  SessionStats session_;
};

}  // namespace dml::online
