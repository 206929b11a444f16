// The traced form of the batch pipeline: the same public calls the
// program's own drivers make, issued by the benchmark one chunk at a
// time so a span can sit around each layer.  The untraced runs call the
// program's drivers directly; the output checks pin these loops to them.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bgl/record.hpp"
#include "online/driver.hpp"
#include "predict/predictor.hpp"
#include "preprocess/streaming_pipeline.hpp"
#include "storage/event_repository.hpp"
#include "trace.hpp"

namespace perfbench {

/// Records per traced chunk: large enough that the clock reads around
/// each chunk cost nothing next to the work inside it.
inline constexpr std::size_t kTraceChunk = 4096;

/// Fills `chunk` (already cleared) with up to kTraceChunk records;
/// returns false once the source is exhausted and nothing was added.
using RecordSource = std::function<bool(std::vector<dml::bgl::RasRecord>&)>;

struct PreprocessOutput {
  dml::preprocess::PipelineStats stats;
  std::vector<dml::bgl::Event> events;
};

/// Categorizer -> TemporalFilter -> SpatialFilter, stage by stage over
/// each chunk, with spans "logio.parse" around the source and
/// "preprocess.categorize|temporal|spatial" around each stage.
PreprocessOutput traced_preprocess(const RecordSource& source,
                                   dml::DurationSec threshold,
                                   Tracer* tracer);

/// The preprocess counts of the per-layer metrics, which must repeat
/// exactly for a given seed; compression is unique events over raw
/// records.
void add_preprocess_counts(Outcome& out,
                           const dml::preprocess::PipelineStats& stats);

/// DynamicDriver's DriverConfig -> OnlineEngineConfig mapping (resume
/// and profiling off).  The traced-vs-untraced warning check fails if
/// this drifts from the driver's own mapping.
dml::online::OnlineEngineConfig driver_engine_config(
    const dml::online::DriverConfig& config);

/// What a traced replay produced.
struct ReplayOutput {
  std::vector<dml::predict::Warning> warnings;
  std::size_t retrainings = 0;
  std::size_t rules_active = 0;
};

/// The DynamicDriver loop over `repo` (resume disabled): the same
/// OnlineEngine configuration and the same consume_batch / advance_to
/// sequence, with spans "storage.scan", "online.serve" and
/// "online.retrain", and the per-learner build times the engine's
/// retrain_log() reports added as "learners.*", "meta.ensemble" and
/// "predict.revise" spans.
ReplayOutput traced_replay(const dml::online::DriverConfig& config,
                           const dml::storage::EventRepository& repo,
                           Tracer* tracer);

}  // namespace perfbench
