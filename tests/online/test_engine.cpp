#include "online/engine.hpp"

#include <gtest/gtest.h>

#include "loggen/generator.hpp"
#include "predict/outcome_matcher.hpp"
#include "support/test_fixtures.hpp"
#include "support/span_calls.hpp"

namespace dml::online {
namespace {

OnlineEngineConfig fast_config() {
  OnlineEngineConfig config;
  config.retrain_interval = 4 * kSecondsPerWeek;
  config.training_span = 12 * kSecondsPerWeek;
  return config;
}

TEST(OnlineEngine, SilentBeforeFirstTraining) {
  std::size_t warnings = 0;
  OnlineEngine engine(fast_config(),
                      [&](const predict::Warning&) { ++warnings; });
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 3)) {
    engine.consume_batch({&event, 1});
  }
  EXPECT_EQ(warnings, 0u);
  EXPECT_TRUE(engine.rules().empty());
  EXPECT_EQ(engine.stats().retrainings, 0u);
}

TEST(OnlineEngine, RetrainsOnScheduleAndWarns) {
  std::size_t warnings = 0;
  OnlineEngine engine(fast_config(),
                      [&](const predict::Warning&) { ++warnings; });
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 20)) {
    engine.consume_batch({&event, 1});
  }
  const auto stats = engine.stats();
  // 20 weeks / 4-week cadence -> 4 retrainings (first at week 4).
  EXPECT_EQ(stats.retrainings, 4u);
  EXPECT_FALSE(engine.rules().empty());
  EXPECT_GT(warnings, 50u);
  EXPECT_EQ(stats.warnings_issued, warnings);
  EXPECT_GT(stats.failures_seen, 100u);
}

TEST(OnlineEngine, HistoryStaysBounded) {
  auto config = fast_config();
  config.training_span = 2 * kSecondsPerWeek;
  OnlineEngine engine(config, nullptr);
  const auto& store = testing::shared_store();
  std::size_t max_history = 0;
  for (const auto& event : testing::weeks_of(store, 0, 20)) {
    engine.consume_batch({&event, 1});
    max_history = std::max(max_history, engine.stats().history_size);
  }
  // Two weeks of this log is a few hundred events; 20 weeks is ~2500.
  const auto total = testing::weeks_of(store, 0, 20).size();
  EXPECT_LT(max_history, total / 2);
}

TEST(OnlineEngine, RawRecordsArePreprocessedInline) {
  auto profile = testing::tiny_profile(8);
  logio::VectorSink sink;
  loggen::LogGenerator(profile, 77).generate(sink);

  auto config = fast_config();
  config.retrain_interval = 2 * kSecondsPerWeek;
  config.min_training_events = 50;
  std::size_t warnings = 0;
  OnlineEngine engine(config, [&](const predict::Warning&) { ++warnings; });
  for (const auto& record : sink.records()) engine.consume(record);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.records_consumed, sink.records().size());
  // Filtering compresses the raw stream substantially.
  EXPECT_LT(stats.events_after_filtering, stats.records_consumed / 2);
  EXPECT_GT(stats.retrainings, 0u);
  EXPECT_GT(warnings, 0u);
}

TEST(OnlineEngine, RetrainNowForcesTraining) {
  auto config = fast_config();
  config.min_training_events = 10;
  OnlineEngine engine(config, nullptr);
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 1)) {
    engine.consume_batch({&event, 1});
  }
  EXPECT_EQ(engine.stats().retrainings, 0u);
  engine.retrain_now();
  EXPECT_EQ(engine.stats().retrainings, 1u);
  EXPECT_FALSE(engine.rules().empty());
}

bgl::Event synthetic_event(TimeSec time, CategoryId category, bool fatal) {
  bgl::Event event;
  event.time = time;
  event.category = category;
  event.fatal = fatal;
  event.location = bgl::Location::compute_chip(0, 0, 0, 0, 0);
  return event;
}

TEST(OnlineEngine, MinTrainingEventsGatesEveryBoundary) {
  auto config = fast_config();
  config.min_training_events = 1u << 30;  // never satisfiable
  std::size_t warnings = 0;
  OnlineEngine engine(config, [&](const predict::Warning&) { ++warnings; });
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 20)) {
    engine.consume_batch({&event, 1});
  }
  // Boundaries keep coming due, but the gate refuses them all: no rules,
  // no warnings, and the schedule does not wedge.
  EXPECT_EQ(engine.stats().retrainings, 0u);
  EXPECT_TRUE(engine.rules().empty());
  EXPECT_EQ(warnings, 0u);
}

TEST(OnlineEngine, RetrainNowBeforeAnyEventsIsSafe) {
  OnlineEngine engine(fast_config(), nullptr);
  engine.retrain_now();  // empty history: gate refuses, nothing to join
  EXPECT_EQ(engine.stats().retrainings, 0u);
  EXPECT_TRUE(engine.rules().empty());
  engine.finish();
  EXPECT_EQ(engine.stats().retrainings, 0u);
}

TEST(OnlineEngine, BoundaryTrainingSetExcludesTheBoundaryEvent) {
  // First event at t=0 anchors the schedule; the first boundary is at
  // t=1000.  The training set at a boundary is the events *strictly*
  // before it, so with min_training_events=3:
  //  - events {0, 500} before the boundary, one exactly at t=1000:
  //    2 < 3 -> the gate must refuse (the t=1000 event does not count);
  auto config = fast_config();
  config.retrain_interval = 1000;
  config.initial_training_delay = 1000;
  config.min_training_events = 3;
  {
    OnlineEngine engine(config, nullptr);
    testing::consume_one(engine, synthetic_event(0, 1, false));
    testing::consume_one(engine, synthetic_event(500, 2, true));
    testing::consume_one(engine, synthetic_event(1000, 1, false));
    EXPECT_EQ(engine.stats().retrainings, 0u);
  }
  //  - events {0, 400, 800} strictly before it: 3 >= 3 -> it trains the
  //    moment the boundary-time event arrives.
  {
    OnlineEngine engine(config, nullptr);
    testing::consume_one(engine, synthetic_event(0, 1, false));
    testing::consume_one(engine, synthetic_event(400, 2, true));
    testing::consume_one(engine, synthetic_event(800, 1, false));
    EXPECT_EQ(engine.stats().retrainings, 0u);
    testing::consume_one(engine, synthetic_event(1000, 1, false));
    EXPECT_EQ(engine.stats().retrainings, 1u);
  }
}

TEST(OnlineEngine, PinnedSnapshotSurvivesRetraining) {
  auto config = fast_config();
  OnlineEngine engine(config, nullptr);
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 6)) {
    engine.consume_batch({&event, 1});
  }
  ASSERT_EQ(engine.stats().retrainings, 1u);
  const meta::RepositorySnapshot pinned = engine.rules_snapshot();
  const std::size_t pinned_size = pinned->size();
  ASSERT_GT(pinned_size, 0u);

  for (const auto& event : testing::weeks_of(store, 6, 12)) {
    engine.consume_batch({&event, 1});
  }
  ASSERT_GE(engine.stats().retrainings, 2u);
  // The RCU contract: the pinned snapshot is untouched by later swaps.
  EXPECT_EQ(pinned->size(), pinned_size);
  EXPECT_NE(engine.rules_snapshot().get(), pinned.get());
}

TEST(OnlineEngine, AsyncBuildAdoptsAtBoundaryPlusLag) {
  auto config = fast_config();
  config.async_retrain = true;
  config.adoption_lag = 600;
  std::vector<predict::Warning> warnings;
  OnlineEngine engine(config, [&](const predict::Warning& w) {
    warnings.push_back(w);
  });
  const auto& store = testing::shared_store();
  for (const auto& event : testing::weeks_of(store, 0, 10)) {
    engine.consume_batch({&event, 1});
  }
  engine.finish();
  ASSERT_GE(engine.retrain_log().size(), 2u);
  for (const auto& build : engine.retrain_log()) {
    EXPECT_EQ(build.activate_at, build.scheduled_at + 600);
  }
  EXPECT_FALSE(engine.rules().empty());
  // No warning was issued from the new rules before their adoption
  // instant (the old snapshot serves the gap).
  EXPECT_GT(warnings.size(), 0u);
}

TEST(OnlineEngine, MatchesBatchAccuracyBallpark) {
  // The streaming engine over weeks 0-24 should produce warnings whose
  // quality is in the same band as the batch driver's on that span.
  std::vector<predict::Warning> warnings;
  auto config = fast_config();
  config.training_span = 12 * kSecondsPerWeek;
  OnlineEngine engine(config, [&](const predict::Warning& w) {
    warnings.push_back(w);
  });
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 0, 24);
  for (const auto& event : events) engine.consume_batch({&event, 1});

  // Evaluate warnings against the span after the first training.
  const TimeSec eval_begin =
      store.first_time() + 4 * kSecondsPerWeek;
  std::vector<predict::Warning> evaluated;
  for (const auto& w : warnings) {
    if (w.issued_at >= eval_begin) evaluated.push_back(w);
  }
  const auto test_events = store.between(
      eval_begin, store.first_time() + 24 * kSecondsPerWeek);
  const auto result =
      predict::evaluate_predictions(test_events, evaluated, 300);
  EXPECT_GT(stats::recall(result.overall), 0.5);
  EXPECT_GT(stats::precision(result.overall), 0.4);
}

}  // namespace
}  // namespace dml::online
