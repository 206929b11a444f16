// The sharded serving core's headline invariant: partitioning the event
// stream by midplane across N shards changes *scheduling*, never
// *semantics*.  A 4-shard replay must produce exactly the warning
// multiset of a 1-shard replay — and therefore identical confusion
// counts — because per-midplane predictor state decomposes cleanly and
// ticks fire on the shared absolute grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <tuple>
#include <vector>

#include "online/sharded_engine.hpp"
#include "predict/outcome_matcher.hpp"
#include "support/test_fixtures.hpp"

namespace dml::online {
namespace {

using WarningKey = std::tuple<TimeSec, TimeSec, std::uint64_t, int,
                              std::uint32_t, std::uint32_t>;

WarningKey key_of(const predict::Warning& w) {
  return {w.issued_at,
          w.deadline,
          w.rule_id,
          static_cast<int>(w.source),
          w.category.value_or(0xffff),
          w.location ? w.location->packed() : 0xffffffffu};
}

struct Replay {
  std::vector<predict::Warning> warnings;
  stats::ConfusionCounts counts;
  ShardedEngine::SessionStats stats;
};

Replay replay(std::size_t shards, int weeks) {
  ShardedEngineConfig config;
  config.shards = shards;
  config.engine.retrain_interval = 4 * kSecondsPerWeek;
  config.engine.training_span = 12 * kSecondsPerWeek;
  config.engine.async_retrain = true;

  Replay result;
  std::mutex mutex;
  ShardedEngine engine(config, [&](const predict::Warning& w) {
    std::lock_guard lock(mutex);
    result.warnings.push_back(w);
  });
  const auto& store = testing::shared_store();
  const auto events = testing::weeks_of(store, 0, weeks);
  for (const auto& event : events) engine.consume_batch({&event, 1});
  result.stats = engine.finish();

  const TimeSec eval_begin = store.first_time() + 4 * kSecondsPerWeek;
  std::vector<predict::Warning> scored;
  for (const auto& w : result.warnings) {
    if (w.issued_at >= eval_begin) scored.push_back(w);
  }
  const auto test_events =
      store.between(eval_begin, store.first_time() +
                                    static_cast<TimeSec>(weeks) *
                                        kSecondsPerWeek);
  result.counts =
      predict::evaluate_predictions(test_events, scored, 300).overall;
  return result;
}

TEST(ShardedDeterminism, FourShardsMatchOneShard) {
  constexpr int kWeeks = 16;
  const auto one = replay(1, kWeeks);
  const auto four = replay(4, kWeeks);

  ASSERT_GT(one.warnings.size(), 20u);
  EXPECT_EQ(one.stats.retrainings, four.stats.retrainings);
  EXPECT_EQ(one.stats.events_after_filtering,
            four.stats.events_after_filtering);

  // Identical warning multisets...
  std::vector<WarningKey> a, b;
  for (const auto& w : one.warnings) a.push_back(key_of(w));
  for (const auto& w : four.warnings) b.push_back(key_of(w));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);

  // ...and, since scoring is a function of the sorted stream, identical
  // confusion counts.
  EXPECT_EQ(one.counts.true_positives, four.counts.true_positives);
  EXPECT_EQ(one.counts.false_positives, four.counts.false_positives);
  EXPECT_EQ(one.counts.false_negatives, four.counts.false_negatives);
}

TEST(ShardedDeterminism, TwoShardReplayIsReproducible) {
  constexpr int kWeeks = 12;
  const auto first = replay(2, kWeeks);
  const auto second = replay(2, kWeeks);
  ASSERT_EQ(first.warnings.size(), second.warnings.size());
  for (std::size_t i = 0; i < first.warnings.size(); ++i) {
    EXPECT_EQ(key_of(first.warnings[i]), key_of(second.warnings[i]))
        << "at " << i;
  }
}

}  // namespace
}  // namespace dml::online
