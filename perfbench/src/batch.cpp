// The two batch workloads: the serial DynamicDriver over a raw text log
// (replay_text) and over an on-disk event repository with frequent
// retraining (retrain_chain).
#include <algorithm>
#include <filesystem>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "loggen/generator.hpp"
#include "logio/binary_format.hpp"
#include "logio/event_store.hpp"
#include "logio/text_format.hpp"
#include "online/driver.hpp"
#include "online/engine.hpp"
#include "preprocess/pipeline.hpp"
#include "storage/disk_repository.hpp"
#include "storage/log_writer.hpp"

namespace perfbench {
namespace {

using namespace dml;

constexpr int kSetupReps = 25;

/// Read-only istream source over bytes the benchmark already holds, so
/// a replay parses the log without first copying it.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

/// One untraced DynamicDriver replay over `repo`.  A batch replay
/// works through an archive that exists before it starts, so every item
/// is due at `start`: a warning's latency runs from there to the
/// warning observer call.
struct DriverPass {
  double seconds = 0.0;
  online::DriverResult result;
  std::vector<predict::Warning> warnings;
  std::vector<double> latencies_ms;
};

DriverPass drive(const online::DriverConfig& base,
                 const storage::EventRepository& repo,
                 Clock::time_point start) {
  DriverPass pass;
  online::DriverConfig config = base;
  config.warning_observer = [&](const predict::Warning& w) {
    pass.warnings.push_back(w);
    pass.latencies_ms.push_back(seconds_between(start, Clock::now()) * 1e3);
  };
  pass.result = online::DynamicDriver(config).run(repo);
  pass.seconds = seconds_between(start, Clock::now());
  return pass;
}

/// Untraced and traced passes alternate until `seconds` is spent; a
/// run without tracing does untraced passes only.  At least one of each
/// kind runs.
template <class Untraced, class Traced>
void repeat_passes(const Options& options, Untraced&& untraced,
                   Traced&& traced) {
  const auto start = Clock::now();
  int done = 0;
  do {
    if (options.trace && done % 2 == 1) {
      traced();
    } else {
      untraced();
    }
    ++done;
  } while (seconds_between(start, Clock::now()) < options.seconds ||
           (options.trace && done < 2));
}

/// Batch end-to-end metrics shared by both workloads.
void add_batch_metrics(Outcome& out, double setup_s,
                       const std::vector<double>& rates,
                       const std::vector<std::vector<double>>& latencies,
                       const stats::ConfusionCounts& counts,
                       std::uint64_t rss_bytes) {
  out.add("setup_s", setup_s, "s");
  out.add("replay_per_s", median(rates), "1/s");
  out.add("precision", stats::precision(counts), "ratio");
  out.add("recall", stats::recall(counts), "ratio");
  // A batch replay is a closed loop: it sustains the rate it replays at.
  out.add("sustained_per_s", median(rates), "1/s");
  // Every pass replays the same inputs, so what differs between passes
  // is the host: the least-disturbed pass gives the program's own tail.
  std::vector<double> p50;
  std::vector<double> p99;
  std::size_t samples = 0;
  for (const auto& pass : latencies) {
    p50.push_back(quantile(pass, 0.5));
    p99.push_back(quantile(pass, 0.99));
    samples += pass.size();
  }
  out.add("warn_latency_p50_ms", *std::min_element(p50.begin(), p50.end()),
          "ms");
  out.add("warn_latency_p99_ms", *std::min_element(p99.begin(), p99.end()),
          "ms");
  out.add("ok_frac", ok_frac(out), "ratio");
  out.add("peak_rss_mb", static_cast<double>(rss_bytes) / (1 << 20), "MB");
  out.note("latency_samples_per_pass", static_cast<double>(samples) /
                                           static_cast<double>(p50.size()));
}

/// Per-layer metrics of a traced replay that both workloads share.
void add_replay_layers(Outcome& out, const Tracer& tracer,
                       const ReplayOutput& replay) {
  auto totals = tracer.total_seconds();
  const auto get = [&](const char* name) { return totals[name]; };
  out.add("storage.scan_s", get("storage.scan"), "s");
  out.add("online.retrain_s", get("online.retrain"), "s");
  out.add("online.retrainings", static_cast<double>(replay.retrainings),
          "count");
  out.add("online.serve_s", get("online.serve"), "s");
  out.add("learners.association_s", get("learners.association"), "s");
  out.add("learners.correlation_s", get("learners.correlation"), "s");
  out.add("learners.statistical_s", get("learners.statistical"), "s");
  out.add("learners.distribution_s", get("learners.distribution"), "s");
  out.add("meta.ensemble_s", get("meta.ensemble"), "s");
  out.add("predict.revise_s", get("predict.revise"), "s");
  out.add("predict.warnings", static_cast<double>(replay.warnings.size()),
          "count");
  out.add("predict.rules_active", static_cast<double>(replay.rules_active),
          "count");
}

/// Adds, per metric, the median over the traced passes.
void add_layer_medians(Outcome& out, const std::vector<Outcome>& passes) {
  for (std::size_t m = 0; m < passes.front().metrics.size(); ++m) {
    std::vector<double> values;
    for (const Outcome& pass : passes) values.push_back(pass.metrics[m].value);
    const Metric& metric = passes.front().metrics[m];
    out.add(metric.name, median(values), metric.unit);
  }
}

bool same_pipeline_counts(const preprocess::PipelineStats& a,
                          const preprocess::PipelineStats& b) {
  return a.raw_records == b.raw_records &&
         a.unclassified == b.unclassified &&
         a.after_temporal == b.after_temporal &&
         a.unique_events == b.unique_events;
}

// ---- replay_text ---------------------------------------------------------

constexpr int kReplayWeeks = 52;
constexpr DurationSec kThreshold = 300;

struct TextPass {
  DriverPass drive;
  preprocess::PipelineStats stats;
  std::uint64_t skipped = 0;
};

template <class Reader>
TextPass replay_log(const std::string& bytes,
                    const online::DriverConfig& config) {
  TextPass pass;
  const auto start = Clock::now();
  ViewBuf buf(bytes);
  std::istream in(&buf);
  Reader reader(in, logio::RecordReader::OnError::kSkip);
  preprocess::PreprocessPipeline pipeline(kThreshold);
  while (auto record = reader.next()) pipeline.consume(*record);
  pass.skipped = reader.read_stats().skipped;
  pass.stats = pipeline.stats();
  const logio::EventStore store = pipeline.take_store();
  pass.drive = drive(config, store, start);
  return pass;
}

}  // namespace

Outcome run_replay_text(const Options& options) {
  Outcome out;
  loggen::MachineProfile profile = loggen::MachineProfile::anl();
  profile.weeks = kReplayWeeks;
  std::ostringstream text_out;
  std::ostringstream binary_out;
  std::uint64_t records = 0;
  {
    logio::StreamSink text_sink(text_out, profile.machine.name);
    logio::BinaryStreamSink binary_sink(binary_out, profile.machine.name);
    logio::TeeSink tee({&text_sink, &binary_sink});
    loggen::LogGenerator(profile, options.seed).generate(tee);
    records = binary_sink.records_written();
  }
  const std::string text = std::move(text_out).str();
  const std::string binary = std::move(binary_out).str();
  out.note("log_weeks", std::to_string(kReplayWeeks));
  out.note("raw_records", static_cast<double>(records));
  out.note("text_bytes", static_cast<double>(text.size()));
  out.note("binary_bytes", static_cast<double>(binary.size()));

  const online::DriverConfig config;  // dmlfp run defaults
  std::vector<double> setup_s;
  std::vector<double> taxonomy_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    const bgl::Taxonomy taxonomy;
    const auto t1 = Clock::now();
    preprocess::PreprocessPipeline pipeline(kThreshold, taxonomy);
    online::OnlineEngine engine(driver_engine_config(config),
                                [](const predict::Warning&) {});
    setup_s.push_back(seconds_between(t0, Clock::now()));
    taxonomy_s.push_back(seconds_between(t0, t1));
  }

  out.note("peak_rss_reset", reset_peak_rss() ? "yes" : "no");
  std::vector<TextPass> passes;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> rates;
  std::vector<std::vector<double>> latencies;  // per pass
  std::vector<Outcome> traced_layers;
  Tracer last_tracer;
  repeat_passes(
      options,
      [&] {
        passes.push_back(replay_log<logio::RecordReader>(text, config));
        const DriverPass& d = passes.back().drive;
        untraced_s.push_back(d.seconds);
        rates.push_back(static_cast<double>(records) / d.seconds);
        latencies.push_back(d.latencies_ms);
      },
      [&] {
        Tracer tracer;
        const auto start = Clock::now();
        ViewBuf buf(text);
        std::istream in(&buf);
        logio::RecordReader reader(in, logio::RecordReader::OnError::kSkip);
        const auto pre = traced_preprocess(
            [&](std::vector<bgl::RasRecord>& chunk) {
              while (chunk.size() < kTraceChunk) {
                auto record = reader.next();
                if (!record) break;
                chunk.push_back(std::move(*record));
              }
              return !chunk.empty();
            },
            kThreshold, &tracer);
        const logio::EventStore store(pre.events);
        const ReplayOutput replay = traced_replay(config, store, &tracer);
        traced_s.push_back(seconds_between(start, Clock::now()));

        Outcome layers;
        auto totals = tracer.total_seconds();
        const double parse_s = totals["logio.parse"];
        layers.add("logio.parse_s", parse_s, "s");
        layers.add("logio.mb_per_s",
                   static_cast<double>(text.size()) / (1 << 20) / parse_s,
                   "MB/s");
        layers.add("logio.records_skipped",
                   static_cast<double>(reader.read_stats().skipped),
                   "count");
        for (const char* stage : {"categorize", "temporal", "spatial"}) {
          const std::string name = std::string("preprocess.") + stage;
          layers.add(name + "_s", totals[name], "s");
        }
        add_replay_layers(layers, tracer, replay);
        traced_layers.push_back(std::move(layers));

        const TextPass& reference = passes.front();
        out.check("traced preprocess counts vs untraced",
                  same_pipeline_counts(pre.stats, reference.stats) ? 0 : 1);
        out.check("traced warnings vs untraced",
                  multiset_mismatch(replay.warnings,
                                    reference.drive.warnings));
        last_tracer = std::move(tracer);
      });
  const std::uint64_t rss_peak = peak_rss_bytes();

  // Output checks: every pass agrees with the first, and the first with
  // a replay of the same log through the binary parser.
  const TextPass& first = passes.front();
  for (const TextPass& pass : passes) {
    out.attempted += records + first.drive.warnings.size();
    out.failed += pass.skipped;
    out.check("text pass vs first text pass",
              multiset_mismatch(pass.drive.warnings, first.drive.warnings));
  }
  const TextPass oracle = replay_log<logio::BinaryRecordReader>(binary, config);
  out.check("text replay vs binary replay",
            multiset_mismatch(first.drive.warnings, oracle.drive.warnings));
  out.check("text vs binary preprocess counts",
            same_pipeline_counts(first.stats, oracle.stats) ? 0 : 1);
  out.note("unique_events", static_cast<double>(first.stats.unique_events));
  out.note("warnings", static_cast<double>(first.drive.warnings.size()));
  out.note("untraced_passes", static_cast<double>(untraced_s.size()));

  if (!options.trace) {
    add_batch_metrics(out, median(setup_s), rates, latencies,
                      first.drive.result.total_counts(), rss_peak);
    return out;
  }
  // Traced run: per-layer metrics are medians over the traced passes.
  out.add("bgl.taxonomy_init_s", median(taxonomy_s), "s");
  add_layer_medians(out, traced_layers);
  add_preprocess_counts(out, first.stats);
  out.add("trace.overhead_s", median(traced_s) - median(untraced_s), "s");
  if (!last_tracer.write_json(options.spans_path)) {
    out.check("writing " + options.spans_path, 1);
  }
  return out;
}

// ---- retrain_chain -------------------------------------------------------

namespace {

/// Share of fatal categories preceded by ordered multi-stage cascades,
/// so the correlation learner has chains to mine.
constexpr double kChainCoverage = 0.9;
/// Logs per pass; the logs of a run come from seeds kChainLogs * seed + k.
constexpr int kChainLogs = 2;

online::DriverConfig chain_config() {
  online::DriverConfig config;
  config.mode = online::TrainingMode::kWholeHistory;
  config.retrain_weeks = 1;
  config.learner.enable_correlation = true;
  return config;
}

}  // namespace

Outcome run_retrain_chain(const Options& options) {
  Outcome out;
  // Several independent machines' logs per pass, so one seed's rule
  // mix does not set the whole run's figures.
  loggen::MachineProfile profile = loggen::MachineProfile::anl();
  profile.chain_coverage = kChainCoverage;
  std::vector<std::vector<bgl::Event>> logs;
  std::vector<std::string> dirs;
  std::size_t events = 0;
  for (int k = 0; k < kChainLogs; ++k) {
    logs.push_back(
        loggen::LogGenerator(profile, kChainLogs * options.seed + k)
            .generate_unique_events());
    events += logs.back().size();
    dirs.push_back(options.work_dir + "/retrain_chain-repo-" +
                   std::to_string(::getpid()) + "-" + std::to_string(k));
    std::filesystem::remove_all(dirs.back());
    storage::LogWriter writer(dirs.back(), profile.machine.name, {});
    storage::CanonicalAppender appender(writer);
    for (const bgl::Event& event : logs.back()) appender.append(event);
    appender.flush();
    writer.close();
  }
  out.note("logs", std::to_string(kChainLogs));
  out.note("log_weeks", std::to_string(profile.weeks));
  out.note("events", static_cast<double>(events));

  const online::DriverConfig config = chain_config();
  std::vector<double> setup_s;
  std::vector<double> open_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    const storage::OnDiskRepository repo(dirs.front());
    const auto t1 = Clock::now();
    online::OnlineEngine engine(driver_engine_config(config),
                                [](const predict::Warning&) {});
    setup_s.push_back(seconds_between(t0, Clock::now()));
    open_s.push_back(seconds_between(t0, t1));
  }

  out.note("peak_rss_reset", reset_peak_rss() ? "yes" : "no");
  std::vector<std::vector<DriverPass>> passes;  // [pass][log]
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> rates;
  std::vector<std::vector<double>> latencies;  // per pass
  std::vector<Outcome> traced_layers;
  Tracer last_tracer;
  repeat_passes(
      options,
      [&] {
        double seconds = 0.0;
        passes.emplace_back();
        latencies.emplace_back();
        for (const std::string& dir : dirs) {
          const auto start = Clock::now();
          const storage::OnDiskRepository repo(dir);
          passes.back().push_back(drive(config, repo, start));
          const DriverPass& pass = passes.back().back();
          seconds += pass.seconds;
          latencies.back().insert(latencies.back().end(),
                                  pass.latencies_ms.begin(),
                                  pass.latencies_ms.end());
        }
        untraced_s.push_back(seconds);
        rates.push_back(static_cast<double>(events) / seconds);
      },
      [&] {
        Tracer tracer;
        const auto start = Clock::now();
        ReplayOutput total;
        for (std::size_t k = 0; k < dirs.size(); ++k) {
          std::optional<storage::OnDiskRepository> repo;
          {
            Tracer::Scope span(&tracer, "storage.open");
            repo.emplace(dirs[k]);
          }
          const ReplayOutput replay = traced_replay(config, *repo, &tracer);
          out.check("traced warnings vs untraced",
                    multiset_mismatch(replay.warnings,
                                      passes.front()[k].warnings));
          total.warnings.insert(total.warnings.end(),
                                replay.warnings.begin(),
                                replay.warnings.end());
          total.retrainings += replay.retrainings;
          total.rules_active += replay.rules_active;
        }
        traced_s.push_back(seconds_between(start, Clock::now()));
        Outcome layers;
        add_replay_layers(layers, tracer, total);
        traced_layers.push_back(std::move(layers));
        last_tracer = std::move(tracer);
      });
  const std::uint64_t rss_peak = peak_rss_bytes();

  // Output checks: every pass agrees with the first, and the first with
  // DynamicDriver over the in-memory store.
  stats::ConfusionCounts counts;
  std::size_t warnings = 0;
  for (std::size_t k = 0; k < dirs.size(); ++k) {
    const DriverPass& first = passes.front()[k];
    for (const auto& pass : passes) {
      out.attempted += logs[k].size() + first.warnings.size();
      out.check("on-disk pass vs first pass",
                multiset_mismatch(pass[k].warnings, first.warnings));
    }
    const logio::EventStore store(logs[k]);
    const DriverPass oracle = drive(config, store, Clock::now());
    out.check("on-disk replay vs in-memory replay",
              multiset_mismatch(first.warnings, oracle.warnings));
    std::filesystem::remove_all(dirs[k]);
    counts += first.result.total_counts();
    warnings += first.warnings.size();
  }
  out.note("warnings", static_cast<double>(warnings));
  out.note("untraced_passes", static_cast<double>(untraced_s.size()));

  if (!options.trace) {
    add_batch_metrics(out, median(setup_s), rates, latencies, counts,
                      rss_peak);
    return out;
  }
  out.add("storage.open_s", median(open_s), "s");
  add_layer_medians(out, traced_layers);
  out.add("trace.overhead_s", median(traced_s) - median(untraced_s), "s");
  if (!last_tracer.write_json(options.spans_path)) {
    out.check("writing " + options.spans_path, 1);
  }
  return out;
}

}  // namespace perfbench
