#include "layers.hpp"

#include <algorithm>
#include <optional>

#include "online/engine.hpp"
#include "preprocess/categorizer.hpp"
#include "preprocess/spatial_filter.hpp"
#include "preprocess/temporal_filter.hpp"

namespace perfbench {

using namespace dml;

PreprocessOutput traced_preprocess(const RecordSource& source,
                                   DurationSec threshold, Tracer* tracer) {
  PreprocessOutput out;
  preprocess::Categorizer categorizer;
  preprocess::TemporalFilter temporal(threshold);
  preprocess::SpatialFilter spatial(threshold);

  std::vector<bgl::RasRecord> records;
  std::vector<preprocess::CategorizedRecord> categorized;
  std::vector<preprocess::CategorizedRecord> after_temporal;
  records.reserve(kTraceChunk);
  while (true) {
    records.clear();
    bool more = false;
    {
      Tracer::Scope span(tracer, "logio.parse");
      more = source(records);
    }
    if (!more) break;
    out.stats.raw_records += records.size();

    categorized.clear();
    {
      Tracer::Scope span(tracer, "preprocess.categorize");
      for (const auto& record : records) {
        if (auto c = categorizer.categorize(record)) {
          categorized.push_back(std::move(*c));
        }
      }
    }
    out.stats.unclassified += records.size() - categorized.size();

    after_temporal.clear();
    {
      Tracer::Scope span(tracer, "preprocess.temporal");
      for (const auto& c : categorized) {
        if (auto kept = temporal.push(c)) {
          after_temporal.push_back(std::move(*kept));
        }
      }
    }
    out.stats.after_temporal += after_temporal.size();

    Tracer::Scope span(tracer, "preprocess.spatial");
    for (const auto& c : after_temporal) {
      auto survivor = spatial.push(c);
      if (!survivor) continue;
      ++out.stats.unique_events;
      ++out.stats.unique_per_facility[static_cast<std::size_t>(
          survivor->record.facility)];
      bgl::Event event;
      event.time = survivor->record.event_time;
      event.category = survivor->category;
      event.job_id = survivor->record.job_id;
      event.location = survivor->record.location;
      event.fatal = survivor->fatal;
      out.events.push_back(event);
    }
  }
  return out;
}

void add_preprocess_counts(Outcome& out,
                           const preprocess::PipelineStats& stats) {
  out.add("preprocess.unclassified", static_cast<double>(stats.unclassified),
          "count");
  out.add("preprocess.after_temporal",
          static_cast<double>(stats.after_temporal), "count");
  out.add("preprocess.unique_events",
          static_cast<double>(stats.unique_events), "count");
  out.add("preprocess.compression",
          static_cast<double>(stats.unique_events) /
              static_cast<double>(stats.raw_records),
          "ratio");
}

online::OnlineEngineConfig driver_engine_config(
    const online::DriverConfig& config) {
  const DurationSec initial =
      static_cast<DurationSec>(config.training_weeks) * kSecondsPerWeek;
  online::OnlineEngineConfig ec;
  ec.prediction_window = config.prediction_window;
  ec.retrain_interval =
      static_cast<DurationSec>(config.retrain_weeks) * kSecondsPerWeek;
  ec.initial_training_delay = initial;
  ec.training_span = initial;
  ec.min_training_events = 1;
  ec.mode = config.mode;
  ec.use_reviser = config.use_reviser;
  ec.reviser = config.reviser;
  ec.learner = config.learner;
  ec.predictor = config.predictor;
  ec.clock_tick = config.clock_tick;
  ec.adaptive_window = config.adaptive_window;
  ec.window_candidates = config.window_candidates;
  ec.validation_fraction = config.validation_fraction;
  ec.async_retrain = false;
  return ec;
}

namespace {

void add_build_spans(const online::SnapshotBuild& build, Tracer* tracer) {
  if (tracer == nullptr) return;
  const auto& t = build.train_times;
  tracer->add_reported("learners.association", t.association_seconds);
  tracer->add_reported("learners.correlation", t.correlation_seconds);
  tracer->add_reported("learners.statistical", t.statistical_seconds);
  tracer->add_reported("learners.distribution", t.distribution_seconds);
  tracer->add_reported("learners.decision_tree", t.decision_tree_seconds);
  tracer->add_reported("learners.neural_net", t.neural_net_seconds);
  tracer->add_reported("meta.ensemble", t.ensemble_seconds);
  tracer->add_reported("predict.revise", build.revise_seconds);
}

}  // namespace

ReplayOutput traced_replay(const online::DriverConfig& config,
                           const storage::EventRepository& repo,
                           Tracer* tracer) {
  ReplayOutput out;
  if (repo.empty()) return out;
  online::OnlineEngine engine(
      driver_engine_config(config),
      [&](const predict::Warning& w) { out.warnings.push_back(w); });

  const TimeSec origin = repo.first_time();
  const TimeSec log_end = repo.last_time();
  const DurationSec retrain_span =
      static_cast<DurationSec>(config.retrain_weeks) * kSecondsPerWeek;
  const DurationSec initial_span =
      static_cast<DurationSec>(config.training_weeks) * kSecondsPerWeek;

  std::vector<bgl::Event> batch;
  const auto read = [&](storage::EventCursor& cursor) {
    batch.clear();
    Tracer::Scope span(tracer, "storage.scan");
    return cursor.next(batch, storage::kDefaultScanBatch);
  };
  const auto serve = [&] {
    Tracer::Scope span(tracer, "online.serve");
    engine.consume_batch(batch);
  };

  TimeSec fed_until = origin;
  for (TimeSec test_begin = origin + initial_span; test_begin < log_end;
       test_begin += retrain_span) {
    auto history = repo.scan(fed_until, test_begin);
    while (read(*history) > 0) serve();

    {
      Tracer::Scope span(tracer, "online.retrain");
      const std::size_t adopted = engine.retrain_log().size();
      engine.advance_to(test_begin);
      const auto& log = engine.retrain_log();
      for (std::size_t i = adopted; i < log.size(); ++i) {
        add_build_spans(log[i], tracer);
      }
    }

    // The driver hands each test interval to the engine as one batch.
    const TimeSec test_end =
        std::min<TimeSec>(test_begin + retrain_span, log_end + 1);
    std::vector<bgl::Event> interval;
    auto cursor = repo.scan(test_begin, test_end);
    while (read(*cursor) > 0) {
      interval.insert(interval.end(), batch.begin(), batch.end());
    }
    batch.swap(interval);
    serve();
    fed_until = test_begin + retrain_span;
  }
  out.retrainings = engine.retrain_log().size();
  out.rules_active = engine.rules().size();
  return out;
}

}  // namespace perfbench
