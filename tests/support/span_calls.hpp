// Single-event call sites in tests.  Serving takes spans only — a single
// event is a span of one — so these wrap the span forms for tests that
// step a predictor or an engine one event at a time.
#pragma once

#include <vector>

#include "bgl/record.hpp"
#include "predict/predictor.hpp"

namespace dml::testing {

/// Feeds one event; returns the warnings it triggered.
inline std::vector<predict::Warning> observe_one(predict::Predictor& predictor,
                                                 const bgl::Event& event) {
  std::vector<predict::Warning> out;
  predictor.observe({&event, 1}, out);
  return out;
}

/// One clock tick; returns the warnings it issued.
inline std::vector<predict::Warning> tick(predict::Predictor& predictor,
                                          TimeSec now) {
  std::vector<predict::Warning> out;
  predictor.tick_into(now, out);
  return out;
}

/// Feeds one categorized event to an OnlineEngine or ShardedEngine.
template <class Engine>
void consume_one(Engine& engine, const bgl::Event& event) {
  engine.consume_batch({&event, 1});
}

}  // namespace dml::testing
