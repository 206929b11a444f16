#include "online/engine.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"

namespace dml::online {

std::string_view to_string(DegradationEvent::Kind kind) {
  switch (kind) {
    case DegradationEvent::Kind::kRetrainFailure: return "retrain-failure";
    case DegradationEvent::Kind::kShardQuarantined:
      return "shard-quarantined";
    case DegradationEvent::Kind::kRecordsSkipped: return "records-skipped";
  }
  return "unknown";
}

ServingCore::Options serving_options(const OnlineEngineConfig& config) {
  ServingCore::Options options;
  options.clock_tick = config.clock_tick;
  options.predictor = config.predictor;
  options.tick_anchor = config.absolute_ticks
                            ? ServingCore::TickAnchor::kAbsolute
                            : ServingCore::TickAnchor::kInterval;
  options.tick_follows_window = config.adaptive_window;
  options.warm_retention = config.prediction_window;
  if (config.adaptive_window) {
    for (const DurationSec candidate : config.window_candidates) {
      options.warm_retention = std::max(options.warm_retention, candidate);
    }
  }
  return options;
}

OnlineEngine::OnlineEngine(OnlineEngineConfig config,
                           WarningCallback on_warning)
    : config_(std::move(config)),
      on_warning_(std::move(on_warning)),
      pipeline_(config_.filter_threshold),
      scheduler_(config_),
      serving_(serving_options(config_)) {}

OnlineEngine::~OnlineEngine() = default;

void OnlineEngine::consume(std::span<const bgl::RasRecord> records) {
  for (const bgl::RasRecord& record : records) {
    ++session_.records_consumed;
    if (auto event = pipeline_.push(record)) observe(*event);
  }
}

void OnlineEngine::consume_batch(std::span<const bgl::Event> events) {
  for (const bgl::Event& event : events) {
    ++session_.records_consumed;
    observe(event);
  }
}

void OnlineEngine::advance_to(TimeSec t) { step(t); }

void OnlineEngine::cold_start(const storage::EventRepository& repo,
                              TimeSec serve_from) {
  // Restart is only exact with deterministic inline builds: an async
  // build's adoption depends on wall time unless adoption_lag pins it,
  // and a fresh replay has no way to reproduce the race.
  DML_CHECK(!config_.async_retrain);
  DML_CHECK(session_.records_consumed == 0 &&
            session_.events_after_filtering == 0);
  if (repo.empty() || serve_from <= repo.first_time()) return;
  suppress_before_ = serve_from;
  storage::for_each_batch(repo, repo.first_time(), serve_from,
                          [&](auto batch) { consume_batch(batch); });
  // Fire boundaries strictly before serve_from; one exactly at
  // serve_from belongs to the resumed session (advance_to will run it).
  step(serve_from - 1);
  session_ = SessionStats{.cold_start_events = session_.records_consumed};
}

void OnlineEngine::adopt(SnapshotBuild build) {
  // Snapshot epoch ordering: adoptions land in nondecreasing event
  // time, so the retrain log reads as the serving timeline.
  DML_DCHECK(retrain_log_.empty() ||
             retrain_log_.back().activate_at <= build.activate_at);
  serving_.adopt(build, scratch_);
  retrain_log_.push_back(std::move(build));
}

void OnlineEngine::step(TimeSec t) {
  now_ = std::max(now_, t);
  auto control = scheduler_.step(now_);
  if (control.refresh_at) serving_.refresh(*control.refresh_at, scratch_);
  if (control.adopt) adopt(std::move(*control.adopt));
  serving_.advance(t, scratch_);
  emit();
}

void OnlineEngine::observe(const bgl::Event& event) {
  step(event.time);
  ++session_.events_after_filtering;
  if (event.fatal) ++session_.failures_seen;
  scheduler_.observe(event);
  if (config_.profile) {
    const auto t0 = std::chrono::steady_clock::now();
    serving_.observe({&event, 1}, scratch_);
    session_.serving_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } else {
    serving_.observe({&event, 1}, scratch_);
  }
  emit();
}

void OnlineEngine::retrain_now() {
  if (!scheduler_.build_in_flight()) {
    const auto action = scheduler_.fire(now_);
    if (action == RetrainScheduler::BoundaryAction::kRefresh) {
      serving_.refresh(now_, scratch_);
    }
  }
  if (auto build = scheduler_.join(now_)) adopt(std::move(*build));
  emit();
}

void OnlineEngine::finish() {
  if (auto build = scheduler_.join(now_)) adopt(std::move(*build));
  emit();
}

void OnlineEngine::emit() {
  for (const auto& warning : scratch_) {
    if (warning.issued_at < suppress_before_) continue;
    ++session_.warnings_issued;
    if (on_warning_) on_warning_(warning);
  }
  scratch_.clear();
}

OnlineEngine::SessionStats OnlineEngine::stats() const {
  SessionStats s = session_;
  s.retrainings = scheduler_.retrainings();
  s.history_size = scheduler_.history_size();
  s.records_rejected = pipeline_.stats().dropped_by_failpoint;
  s.retrain_failures = scheduler_.failures().size();
  for (const auto& build : retrain_log_) {
    s.retrain_build_seconds +=
        build.train_times.total_seconds() + build.revise_seconds;
    s.retrain_train_times += build.train_times;
    s.retrain_revise_seconds += build.revise_seconds;
  }
  return s;
}

std::vector<DegradationEvent> OnlineEngine::degradation_log() const {
  std::vector<DegradationEvent> log;
  for (const auto& failure : scheduler_.failures()) {
    log.push_back({DegradationEvent::Kind::kRetrainFailure, failure.boundary,
                   failure.attempts,
                   "retraining abandoned: " + failure.error});
  }
  const auto dropped = pipeline_.stats().dropped_by_failpoint;
  if (dropped > 0) {
    log.push_back({DegradationEvent::Kind::kRecordsSkipped, now_,
                   static_cast<std::size_t>(dropped),
                   "records dropped in preprocessing"});
  }
  return log;
}

}  // namespace dml::online
