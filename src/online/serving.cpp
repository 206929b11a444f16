#include "online/serving.hpp"

#include "common/annotations.hpp"
#include "common/failpoint.hpp"

namespace dml::online {

ServingCore::ServingCore(Options options)
    : options_(options),
      snapshot_(meta::empty_snapshot()),
      window_(300) {}

void ServingCore::adopt(const SnapshotBuild& build,
                        std::vector<predict::Warning>& out) {
  rebuild(build.activate_at, &build, out);
}

void ServingCore::refresh(TimeSec at, std::vector<predict::Warning>& out) {
  rebuild(at, nullptr, out);
}

void ServingCore::rebuild(TimeSec at, const SnapshotBuild* build,
                          std::vector<predict::Warning>& out) {
  const bool absolute = options_.tick_anchor == TickAnchor::kAbsolute;
  if (absolute) {
    // Ticks due before the rebuild instant fire on the old predictor; a
    // tick exactly at it fires on the new one.
    advance(at, out);
  } else {
    // Replay parity: a rebuild discards the pending grid; the first
    // event served by the new predictor re-anchors it.
    next_tick_.reset();
  }
  if (build != nullptr) {
    snapshot_ = build->repository;
    window_ = build->window;
  }
  predictor_ = std::make_unique<predict::Predictor>(*snapshot_, window_,
                                                    options_.predictor);
  // Warm the fresh predictor's window state on the trailing events so
  // in-flight patterns survive the swap; warm-up warnings are discarded.
  warm_scratch_.clear();
  for (const bgl::Event& event : warm_buffer_) {
    if (event.time >= at - window_ && event.time < at) {
      warm_scratch_.push_back(event);
    }
  }
  discard_.clear();
  predictor_->observe(warm_scratch_, discard_);
  discard_.clear();
  if (absolute && !next_tick_ && tick_interval() > 0) {
    next_tick_ = at + tick_interval();
  }
}

void ServingCore::advance(TimeSec t, std::vector<predict::Warning>& out) {
  while (predictor_ && next_tick_ && *next_tick_ < t) {
    predictor_->tick_into(*next_tick_, out);
    *next_tick_ += tick_interval();
  }
}

void DML_HOT ServingCore::observe(std::span<const bgl::Event> events,
                                  std::vector<predict::Warning>& out) {
  const bool interval_anchor =
      options_.tick_anchor == TickAnchor::kInterval && tick_interval() > 0;
  for (const bgl::Event& event : events) {
    // Fault injection: `serving.observe` supports throw (the owner's
    // worker quarantines) and delay (a slow serving step); drop/corrupt
    // are ignored here — counted drops live at the owner's feed level.
    common::failpoint(common::failpoints::kServingObserve);
    advance(event.time, out);
    if (predictor_) {
      if (interval_anchor && !next_tick_) {
        next_tick_ = event.time + tick_interval();
      }
      predictor_->observe({&event, 1}, out);
    }
    DML_ALLOW_ALLOC("warm buffer: a deque of the trailing retention span, "
                    "popped as it grows");
    warm_buffer_.push_back(event);
    while (warm_buffer_.front().time < event.time - options_.warm_retention) {
      warm_buffer_.pop_front();
    }
  }
}

}  // namespace dml::online
