// Restartable replay: an engine cold-started from the repository at
// time T must serve exactly what an uninterrupted replay serves from T
// on — byte-identical for the single-threaded engine and driver,
// multiset-identical for the sharded engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <sstream>
#include <vector>

#include "online/driver.hpp"
#include "online/engine.hpp"
#include "online/sharded_engine.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

/// One warning as a comparable, printable line (the Warning struct has
/// no operator==; a string key also gives readable failure output).
std::string warning_key(const predict::Warning& w) {
  std::ostringstream out;
  out << w.issued_at << ' ' << w.deadline << ' ';
  if (w.category.has_value()) {
    out << *w.category;
  } else {
    out << '-';
  }
  out << ' ';
  if (w.location.has_value()) {
    out << w.location->packed();
  } else {
    out << '-';
  }
  out << ' ' << w.rule_id << ' ' << learners::to_string(w.source);
  return out.str();
}

std::vector<std::string> keys_of(
    const std::vector<predict::Warning>& warnings) {
  std::vector<std::string> keys;
  keys.reserve(warnings.size());
  for (const auto& w : warnings) keys.push_back(warning_key(w));
  return keys;
}

OnlineEngineConfig engine_config() {
  OnlineEngineConfig config;
  config.retrain_interval = 4 * kSecondsPerWeek;
  config.initial_training_delay = 12 * kSecondsPerWeek;
  config.training_span = 12 * kSecondsPerWeek;
  return config;
}

TEST(EngineColdStart, MatchesUninterruptedReplayFromArbitraryOffset) {
  const auto& store = testing::shared_store();
  // Mid-corpus, deliberately not on a boundary or an event timestamp.
  const TimeSec serve_from =
      store.first_time() + 20 * kSecondsPerWeek + 12345;

  std::vector<predict::Warning> full;
  {
    OnlineEngine engine(engine_config(),
                        [&](const predict::Warning& w) { full.push_back(w); });
    for (const auto& event : store.all()) engine.consume_batch({&event, 1});
    engine.finish();
  }
  std::vector<std::string> full_tail;
  for (const auto& w : full) {
    if (w.issued_at >= serve_from) full_tail.push_back(warning_key(w));
  }
  ASSERT_GT(full_tail.size(), 10u);

  std::vector<predict::Warning> resumed;
  OnlineEngine engine(engine_config(), [&](const predict::Warning& w) {
    resumed.push_back(w);
  });
  engine.cold_start(store, serve_from);
  EXPECT_GT(engine.stats().cold_start_events, 0u);
  const auto tail = store.between(serve_from, store.last_time() + 1);
  for (const auto& event : tail) engine.consume_batch({&event, 1});
  engine.finish();

  EXPECT_EQ(keys_of(resumed), full_tail);
  // Cold start replays the schedule, so the adopted-snapshot history
  // before serve_from exists too.
  EXPECT_GT(engine.retrain_log().size(), 1u);
}

TEST(EngineColdStart, ServeFromBeforeFirstEventIsAFullReplay) {
  const auto& store = testing::shared_store();
  std::vector<predict::Warning> full;
  {
    OnlineEngine engine(engine_config(),
                        [&](const predict::Warning& w) { full.push_back(w); });
    for (const auto& event : store.all()) engine.consume_batch({&event, 1});
    engine.finish();
  }
  std::vector<predict::Warning> resumed;
  OnlineEngine engine(engine_config(), [&](const predict::Warning& w) {
    resumed.push_back(w);
  });
  engine.cold_start(store, store.first_time());  // no-op by contract
  EXPECT_EQ(engine.stats().cold_start_events, 0u);
  for (const auto& event : store.all()) engine.consume_batch({&event, 1});
  engine.finish();
  EXPECT_EQ(keys_of(resumed), keys_of(full));
}

class DriverResume : public ::testing::TestWithParam<TrainingMode> {
 protected:
  static DriverConfig base_config(TrainingMode mode) {
    DriverConfig config;
    config.mode = mode;
    config.training_weeks = 12;
    config.retrain_weeks = 4;
    return config;
  }
};

TEST_P(DriverResume, ResumedIntervalsMatchTheFullRunTail) {
  const auto& store = testing::shared_store();

  auto full_config = base_config(GetParam());
  std::vector<predict::Warning> full_warnings;
  full_config.warning_observer = [&](const predict::Warning& w) {
    full_warnings.push_back(w);
  };
  const auto full = DynamicDriver(full_config).run(store);
  ASSERT_GE(full.intervals.size(), 4u);

  // Resume at week 20: boundaries sit at 12, 16, 20, ... so the engine
  // cold-starts at week 20 exactly and serves intervals from there.
  auto resume_config = base_config(GetParam());
  resume_config.resume_week = 20;
  std::vector<predict::Warning> resumed_warnings;
  resume_config.warning_observer = [&](const predict::Warning& w) {
    resumed_warnings.push_back(w);
  };
  const auto resumed = DynamicDriver(resume_config).run(store);
  EXPECT_GT(resumed.engine_stats.cold_start_events, 0u);

  // Interval-by-interval equality with the full run's tail, numbering
  // included.
  std::vector<const IntervalResult*> full_tail;
  for (const auto& interval : full.intervals) {
    if (interval.week >= 20) full_tail.push_back(&interval);
  }
  ASSERT_EQ(resumed.intervals.size(), full_tail.size());
  ASSERT_FALSE(resumed.intervals.empty());
  for (std::size_t i = 0; i < resumed.intervals.size(); ++i) {
    const auto& r = resumed.intervals[i];
    const auto& f = *full_tail[i];
    EXPECT_EQ(r.index, f.index);
    EXPECT_EQ(r.week, f.week);
    EXPECT_EQ(r.test_begin, f.test_begin);
    EXPECT_EQ(r.test_end, f.test_end);
    EXPECT_EQ(r.counts, f.counts);
    EXPECT_EQ(r.fatal_count, f.fatal_count);
    EXPECT_EQ(r.warning_count, f.warning_count);
    EXPECT_EQ(r.rules_active, f.rules_active);
  }

  // The emitted warning stream from the resume point on is
  // byte-identical to the full run's.
  const TimeSec resume_time = resumed.intervals.front().test_begin;
  std::vector<std::string> expected;
  for (const auto& w : full_warnings) {
    if (w.issued_at >= resume_time) expected.push_back(warning_key(w));
  }
  EXPECT_EQ(keys_of(resumed_warnings), expected);
}

INSTANTIATE_TEST_SUITE_P(AllModes, DriverResume,
                         ::testing::Values(TrainingMode::kSlidingWindow,
                                           TrainingMode::kWholeHistory,
                                           TrainingMode::kStatic),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ShardedColdStart, PostResumeWarningMultisetMatchesFullRun) {
  const auto& store = testing::shared_store();
  const TimeSec serve_from = store.first_time() + 20 * kSecondsPerWeek;

  ShardedEngineConfig config;
  config.shards = 3;
  config.engine.retrain_interval = 4 * kSecondsPerWeek;
  config.engine.training_span = 12 * kSecondsPerWeek;
  config.engine.async_retrain = true;

  const auto run = [&](bool resume) {
    std::mutex mutex;
    std::vector<predict::Warning> warnings;
    ShardedEngine engine(config, [&](const predict::Warning& w) {
      std::lock_guard lock(mutex);
      warnings.push_back(w);
    });
    if (resume) {
      engine.cold_start(store, serve_from);
      EXPECT_GT(engine.stats().cold_start_events, 0u);
    }
    // 28 weeks is enough signal; keeps the two concurrent runs cheap.
    const auto tail =
        store.between(resume ? serve_from : store.first_time(),
                      store.first_time() + 28 * kSecondsPerWeek);
    for (const auto& event : tail) engine.consume_batch({&event, 1});
    engine.finish();
    return warnings;
  };

  auto full = run(false);
  auto resumed = run(true);

  auto full_tail = keys_of(full);
  full_tail.erase(std::remove_if(full_tail.begin(), full_tail.end(),
                                 [&](const std::string& key) {
                                   return std::stoll(key) < serve_from;
                                 }),
                  full_tail.end());
  auto resumed_keys = keys_of(resumed);
  ASSERT_GT(resumed_keys.size(), 10u);
  // Multiset equality (the shard-count invariance argument applied to a
  // time split): same warnings, merge order may tie-break differently.
  std::sort(full_tail.begin(), full_tail.end());
  std::sort(resumed_keys.begin(), resumed_keys.end());
  EXPECT_EQ(resumed_keys, full_tail);
}

}  // namespace
}  // namespace dml::online
