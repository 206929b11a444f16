// The two daemon workloads: an in-process dmlfpd fed over loopback by
// one load-generating thread on one connection, open loop.
//
// daemon_records  raw RAS records in INGEST_RECORDS frames, one stream,
//                 preprocessing inside the daemon's pump, retraining
//                 every 4 weeks with asynchronous builds.
// daemon_events   categorized events in INGEST_EVENTS frames, two
//                 streams multiplexed on the connection, trained once.
//
// Each pass starts a fresh daemon, opens its streams with ingest and
// subscribe rights on the same connection, sends every item of the
// corpus at a fixed offered rate (or as fast as the window allows, for
// the closed-loop pass) and finishes the streams.
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "loggen/generator.hpp"
#include "logio/event_store.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/wire.hpp"
#include "online/driver.hpp"
#include "online/sharded_engine.hpp"
#include "openloop.hpp"
#include "predict/outcome_matcher.hpp"
#include "preprocess/streaming_pipeline.hpp"
#include "support/scale_corpus.hpp"

namespace perfbench {
namespace {

using namespace dml;

/// Offered rates of one workload: the ladder (ascending) and the
/// nominal rung latency is reported at.
struct Ladder {
  std::vector<double> rungs;
  double nominal = 0.0;
};

constexpr std::size_t kFrameItems = 512;
constexpr std::size_t kWindowFrames = 8;
constexpr std::size_t kReactors = 1;
constexpr std::size_t kShards = 2;
/// p99 warning latency a rung must stay under to count as sustained.
constexpr double kLatencyLimitMs = 1000.0;
/// Generator lateness may grow this much over a rung (ms) before the
/// rung counts as saturated.
constexpr double kGrowthLimitMs = 50.0;
constexpr int kSetupReps = 31;
/// Closed-loop passes per run; replay_per_s is their median.
constexpr int kClosedPasses = 5;
constexpr DurationSec kThreshold = 300;

/// daemon_records: weeks of raw ANL log per pass, and offered records/s.
constexpr int kRecordWeeks = 26;
const Ladder kRecordLadder = {{300e3, 500e3, 700e3}, 300e3};
/// daemon_events: events per stream after the training span (tiles of
/// the 8-week slice that follows it), and offered events/s over both
/// streams.
constexpr std::size_t kServingEvents = 100'000;
const Ladder kEventLadder = {{200e3, 300e3, 400e3}, 200e3};

template <class Item>
struct Feed {
  std::vector<Item> items;
  std::vector<TimeSec> times;
  /// Unique events the stream's items amount to (scored by precision
  /// and recall from `scored_from` on).
  std::vector<bgl::Event> events;
  TimeSec scored_from = 0;
};

void send(net::Client& client, std::uint32_t id,
          std::span<const bgl::RasRecord> items) {
  client.send_records(id, items);
}
void send(net::Client& client, std::uint32_t id,
          std::span<const bgl::Event> items) {
  client.send_events(id, items);
}

void append_ingest(std::vector<unsigned char>& out,
                   std::span<const bgl::RasRecord> items) {
  net::append_ingest_records(out, 1, 0, items);
}
void append_ingest(std::vector<unsigned char>& out,
                   std::span<const bgl::Event> items) {
  net::append_ingest_events(out, 1, 0, items);
}

std::size_t decode_ingest(const net::DecodedFrame& frame,
                          const bgl::RasRecord*) {
  const auto msg = net::decode_ingest_records(frame.payload);
  return msg ? msg->records.size() : 0;
}
std::size_t decode_ingest(const net::DecodedFrame& frame, const bgl::Event*) {
  const auto msg = net::decode_ingest_events(frame.payload);
  return msg ? msg->events.size() : 0;
}

struct Setup {
  net::DaemonConfig config;
  std::size_t streams = 1;
};

/// One pass of every stream's corpus through a fresh daemon.
struct Pass {
  /// Start of the schedule until every FINISHED arrived.
  double seconds = 0.0;
  /// Start of the schedule until the last frame was acknowledged.
  double send_seconds = 0.0;
  std::vector<std::vector<predict::Warning>> warnings;
  std::vector<double> latencies_ms;
  std::size_t received = 0;
  std::size_t before_finish = 0;
  Lateness lateness;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t frames = 0;
  /// Traced passes only: time blocked in Client::send_*/flush, and the
  /// acknowledged-minus-served samples.
  double send_blocked_s = 0.0;
  std::vector<double> backlog;
};

template <class Item>
Pass run_pass(const Setup& setup, const std::vector<Feed<Item>>& feeds,
              double offered_per_s, Tracer* tracer) {
  net::Daemon daemon(setup.config);
  daemon.start();
  net::ClientConfig client_config;
  client_config.batch_events = kFrameItems;
  client_config.window_frames = kWindowFrames;
  net::Client client("127.0.0.1", daemon.port(), client_config);

  const std::size_t n_streams = feeds.size();
  Pass pass;
  pass.warnings.resize(n_streams);
  std::vector<std::uint32_t> ids(n_streams);
  std::unordered_map<std::uint32_t, std::size_t> index_of;
  for (std::size_t s = 0; s < n_streams; ++s) {
    ids[s] = client
                 .open_stream("stream-" + std::to_string(s),
                              net::kOpenIngest | net::kOpenSubscribe)
                 .stream_id;
    index_of[ids[s]] = s;
  }

  // Item j of a stream is due j / (offered / streams) seconds in.
  const double per_stream =
      offered_per_s > 0 ? offered_per_s / static_cast<double>(n_streams)
                        : 0.0;
  const auto due = [&](std::size_t item) {
    return per_stream > 0 ? static_cast<double>(item) / per_stream : 0.0;
  };
  std::vector<std::vector<Receipt>> receipts(n_streams);
  const auto start = Clock::now();
  const auto collect = [&](bool before_finish) {
    const auto messages = client.take_warnings();
    const double at = seconds_between(start, Clock::now());
    for (const auto& msg : messages) {
      const std::size_t s = index_of.at(msg.stream_id);
      receipts[s].push_back({msg.warning.issued_at, at});
      pass.warnings[s].push_back(msg.warning);
      if (before_finish) ++pass.before_finish;
    }
  };

  std::vector<std::size_t> next_frame(n_streams, 0);
  std::vector<double> late_ms;
  double last_sample = 0.0;
  while (true) {
    // The earliest-due unsent frame of any stream; a frame is due when
    // its last item is.
    std::size_t s = n_streams;
    double frame_due = 0.0;
    for (std::size_t k = 0; k < n_streams; ++k) {
      const std::size_t first = next_frame[k] * kFrameItems;
      if (first >= feeds[k].items.size()) continue;
      const std::size_t last =
          std::min(first + kFrameItems, feeds[k].items.size()) - 1;
      if (s == n_streams || due(last) < frame_due) {
        s = k;
        frame_due = due(last);
      }
    }
    if (s == n_streams) break;

    double now = seconds_between(start, Clock::now());
    if (now < frame_due) {
      collect(true);
      now = seconds_between(start, Clock::now());
      if (now < frame_due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(frame_due - now, 200e-6)));
      }
      continue;
    }
    late_ms.push_back((now - frame_due) * 1e3);
    const std::size_t first = next_frame[s] * kFrameItems;
    const std::size_t count =
        std::min(kFrameItems, feeds[s].items.size() - first);
    {
      Tracer::Scope span(tracer, "net.send");
      send(client, ids[s],
           std::span<const Item>(feeds[s].items.data() + first, count));
    }
    ++next_frame[s];
    ++pass.frames;
    if (pass.frames % 8 == 0) collect(true);
    if (tracer != nullptr && now - last_sample >= 0.05) {
      // The daemon acknowledges a frame when it admits it, so
      // events_ingested is the acknowledged item count.
      Tracer::Scope span(tracer, "net.stats");
      const net::StreamStatsMsg stats = client.stats(ids[s]);
      pass.backlog.push_back(static_cast<double>(stats.events_ingested) -
                             static_cast<double>(stats.events_served));
      last_sample = now;
    }
  }
  for (std::size_t s = 0; s < n_streams; ++s) {
    Tracer::Scope span(tracer, "net.send");
    client.flush(ids[s]);
  }
  collect(true);
  pass.send_seconds = seconds_between(start, Clock::now());
  for (std::size_t s = 0; s < n_streams; ++s) {
    const net::StreamStatsMsg stats = client.finish_stream(ids[s]);
    pass.dropped += stats.warnings_dropped;
  }
  collect(false);
  pass.seconds = seconds_between(start, Clock::now());
  pass.retries = client.retries();
  pass.lateness = summarize_lateness(late_ms);
  if (tracer != nullptr) {
    pass.send_blocked_s = tracer->total_seconds()["net.send"];
  }
  client.bye();
  daemon.stop();

  for (std::size_t s = 0; s < n_streams; ++s) {
    std::vector<double> due_s(feeds[s].items.size());
    for (std::size_t j = 0; j < due_s.size(); ++j) due_s[j] = due(j);
    const auto latencies =
        warning_latencies_ms(feeds[s].times, due_s, receipts[s]);
    pass.latencies_ms.insert(pass.latencies_ms.end(), latencies.begin(),
                             latencies.end());
    pass.received += receipts[s].size();
  }
  return pass;
}

struct Oracle {
  std::vector<predict::Warning> warnings;
  std::uint64_t retrainings = 0;
  std::size_t rules_active = 0;
};

/// The in-process ShardedEngine with the daemon's stream configuration,
/// fed the stream's items the way the daemon's pump feeds them: records
/// one at a time, events one wire frame at a time.
void feed_engine(online::ShardedEngine& engine,
                 const std::vector<bgl::RasRecord>& records) {
  for (const auto& record : records) engine.consume(record);
}
void feed_engine(online::ShardedEngine& engine,
                 const std::vector<bgl::Event>& events) {
  for (std::size_t i = 0; i < events.size(); i += kFrameItems) {
    engine.consume_batch(std::span<const bgl::Event>(
        events.data() + i, std::min(kFrameItems, events.size() - i)));
  }
}

template <class Item>
Oracle oracle_of(const online::ShardedEngineConfig& config,
                 const std::vector<Item>& items) {
  Oracle oracle;
  online::ShardedEngine engine(config, [&](const predict::Warning& w) {
    oracle.warnings.push_back(w);
  });
  feed_engine(engine, items);
  oracle.retrainings = engine.finish().retrainings;
  const meta::RepositorySnapshot rules = engine.rules_snapshot();
  oracle.rules_active = rules ? rules->size() : 0;
  return oracle;
}

stats::ConfusionCounts score(const std::vector<predict::Warning>& received,
                             const std::vector<bgl::Event>& events,
                             TimeSec scored_from, DurationSec window) {
  std::vector<predict::Warning> warnings = received;
  std::stable_sort(warnings.begin(), warnings.end(),
                   [](const predict::Warning& a, const predict::Warning& b) {
                     return a.issued_at < b.issued_at;
                   });
  const auto from = std::lower_bound(
      events.begin(), events.end(), scored_from,
      [](const bgl::Event& e, TimeSec t) { return e.time < t; });
  return predict::evaluate_predictions(
             std::span<const bgl::Event>(events).subspan(
                 static_cast<std::size_t>(from - events.begin())),
             warnings, window)
      .overall;
}

template <class Item>
Outcome run_daemon(const Options& options, const Setup& setup,
                   const std::vector<Feed<Item>>& feeds,
                   const Ladder& ladder, Outcome out) {
  std::size_t items = 0;
  for (const auto& feed : feeds) items += feed.items.size();
  out.note("items_per_pass", static_cast<double>(items));
  out.note("streams", static_cast<double>(setup.streams));
  out.note("thread_layout",
           "client 1 thread/1 connection; daemon: acceptor 1, reactors " +
               std::to_string(setup.config.reactors) + ", pumps " +
               std::to_string(setup.streams) + ", shard workers " +
               std::to_string(setup.config.engine.shards) +
               " per stream, async retrain on the shared pool");

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    net::Daemon daemon(setup.config);
    daemon.start();
    net::Client client("127.0.0.1", daemon.port());
    client.open_stream("setup", net::kOpenIngest | net::kOpenSubscribe);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    client.bye();
    daemon.stop();
  }

  // Oracle warnings per stream, computed once per distinct corpus.
  std::vector<Oracle> oracles;
  for (const auto& feed : feeds) {
    oracles.push_back(oracle_of(setup.config.engine, feed.items));
  }
  // Every pass must deliver the oracle's warnings.  Operations are
  // counted on the nominal-rung passes only: the closed-loop pass and
  // the rungs above saturation are refused frames by design.
  const auto verify = [&](const Pass& pass, const char* what,
                          bool count_operations) {
    for (std::size_t s = 0; s < feeds.size(); ++s) {
      if (count_operations) {
        out.attempted += feeds[s].items.size() + oracles[s].warnings.size();
      }
      out.check(std::string(what) + " stream " + std::to_string(s) +
                    " vs in-process ShardedEngine",
                multiset_mismatch(pass.warnings[s], oracles[s].warnings));
    }
    if (count_operations) out.failed += pass.dropped + pass.retries;
  };

  out.note("peak_rss_reset", reset_peak_rss() ? "yes" : "no");
  const auto start = Clock::now();
  std::vector<double> closed_rates;
  for (int i = 0; i < kClosedPasses; ++i) {
    const Pass closed = run_pass(setup, feeds, 0.0, nullptr);
    verify(closed, "closed-loop pass", false);
    closed_rates.push_back(static_cast<double>(items) / closed.seconds);
  }

  std::vector<Rung> rungs;
  std::vector<Pass> nominal;
  for (const double rate : ladder.rungs) {
    Pass pass = run_pass(setup, feeds, rate, nullptr);
    verify(pass, "ladder pass", rate == ladder.nominal);
    rungs.push_back({rate, static_cast<double>(items) / pass.send_seconds,
                     quantile(pass.latencies_ms, 0.99),
                     pass.lateness.growth_ms});
    std::fprintf(stderr,
                 "perfbench: rung %.0f/s achieved %.0f/s p50 %.2f ms p99 "
                 "%.2f ms late p99 %.2f ms growth %.2f ms, %zu of %zu "
                 "warnings before FINISH\n",
                 rate, rungs.back().achieved_per_s,
                 quantile(pass.latencies_ms, 0.5),
                 rungs.back().latency_p99_ms, pass.lateness.p99_ms,
                 pass.lateness.growth_ms, pass.before_finish, pass.received);
    if (rate == ladder.nominal) nominal.push_back(std::move(pass));
  }
  // Further nominal-rung passes fill the rest of the run, so the latency
  // percentiles pool more samples.
  std::vector<Pass> traced;
  while (seconds_between(start, Clock::now()) < options.seconds ||
         (options.trace && traced.empty())) {
    if (options.trace && traced.size() < nominal.size()) {
      Tracer tracer;
      traced.push_back(run_pass(setup, feeds, ladder.nominal, &tracer));
      verify(traced.back(), "traced pass", false);
      if (!tracer.write_json(options.spans_path)) {
        out.check("writing " + options.spans_path, 1);
      }
    } else {
      nominal.push_back(run_pass(setup, feeds, ladder.nominal, nullptr));
      verify(nominal.back(), "nominal pass", true);
    }
  }
  const std::uint64_t rss_peak = peak_rss_bytes();

  // Every nominal pass replays the same schedule, so what differs
  // between passes is the host: the least-disturbed pass gives the
  // daemon's own tail.
  std::vector<double> p50;
  std::vector<double> p99;
  std::size_t received = 0;
  std::size_t before_finish = 0;
  for (const Pass& pass : nominal) {
    p50.push_back(quantile(pass.latencies_ms, 0.5));
    p99.push_back(quantile(pass.latencies_ms, 0.99));
    received += pass.received;
    before_finish += pass.before_finish;
  }
  out.note("nominal_per_s", ladder.nominal);
  out.note("nominal_passes", static_cast<double>(nominal.size()));
  out.note("latency_samples_per_pass",
           static_cast<double>(received) / static_cast<double>(p50.size()));
  out.note("latency_limit_ms", kLatencyLimitMs);

  if (!options.trace) {
    stats::ConfusionCounts counts;
    for (std::size_t s = 0; s < feeds.size(); ++s) {
      counts += score(nominal.front().warnings[s], feeds[s].events,
                      feeds[s].scored_from, setup.config.engine.engine
                                                .prediction_window);
    }
    const auto best = sustained_rung(rungs, kLatencyLimitMs, kGrowthLimitMs);
    out.add("setup_s", median(setup_s), "s");
    out.add("replay_per_s", median(closed_rates), "1/s");
    out.add("precision", stats::precision(counts), "ratio");
    out.add("recall", stats::recall(counts), "ratio");
    out.add("sustained_per_s", best ? rungs[*best].achieved_per_s : 0.0,
            "1/s");
    out.add("warn_latency_p50_ms", *std::min_element(p50.begin(), p50.end()),
            "ms");
    out.add("warn_latency_p99_ms", *std::min_element(p99.begin(), p99.end()),
            "ms");
    out.add("ok_frac", ok_frac(out), "ratio");
    out.add("peak_rss_mb", static_cast<double>(rss_peak) / (1 << 20), "MB");
    return out;
  }

  // Traced run: the traced nominal passes against the untraced ones.
  std::vector<double> untraced_s;
  for (const Pass& pass : nominal) untraced_s.push_back(pass.seconds);
  std::vector<double> traced_s;
  std::vector<double> blocked_s;
  std::vector<double> backlog;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  for (const Pass& pass : traced) {
    traced_s.push_back(pass.seconds);
    blocked_s.push_back(pass.send_blocked_s);
    backlog.insert(backlog.end(), pass.backlog.begin(), pass.backlog.end());
    retries += pass.retries;
    dropped += pass.dropped;
  }
  for (const Pass& pass : nominal) {
    retries += pass.retries;
    dropped += pass.dropped;
  }

  // Wire codec: re-encode and re-decode the workload's own frames.
  Tracer codec;
  std::vector<std::vector<unsigned char>> frames;
  std::uint64_t bytes = 0;
  {
    Tracer::Scope span(&codec, "net.wire_encode");
    for (const auto& feed : feeds) {
      for (std::size_t i = 0; i < feed.items.size(); i += kFrameItems) {
        frames.emplace_back();
        append_ingest(frames.back(),
                      std::span<const Item>(
                          feed.items.data() + i,
                          std::min(kFrameItems, feed.items.size() - i)));
        bytes += frames.back().size();
      }
    }
  }
  std::size_t decoded = 0;
  {
    Tracer::Scope span(&codec, "net.wire_decode");
    for (const auto& frame : frames) {
      const auto d = net::decode_frame(frame.data(), frame.size());
      if (d.status == net::DecodeStatus::kFrame) {
        decoded += decode_ingest(d, static_cast<const Item*>(nullptr));
      }
    }
  }
  out.check("wire re-decode item count", decoded == items ? 0 : 1);
  const auto codec_s = codec.total_seconds();

  out.add("net.send_blocked_s", median(blocked_s), "s");
  out.add("net.frames", static_cast<double>(frames.size()), "count");
  out.add("net.bytes", static_cast<double>(bytes), "B");
  out.add("net.wire_encode_s", codec_s.at("net.wire_encode"), "s");
  out.add("net.wire_decode_s", codec_s.at("net.wire_decode"), "s");
  out.add("net.retry_after", static_cast<double>(retries), "count");
  out.add("net.warnings_dropped", static_cast<double>(dropped), "count");
  out.add("net.delivered_before_finish_frac",
          received > 0 ? static_cast<double>(before_finish) /
                             static_cast<double>(received)
                       : 0.0,
          "ratio");
  std::vector<double> late;
  for (const Pass& pass : nominal) late.push_back(pass.lateness.p99_ms);
  out.add("gen.late_ms_p99", median(late), "ms");
  out.add("online.backlog_events",
          backlog.empty() ? 0.0
                          : *std::max_element(backlog.begin(), backlog.end()),
          "count");
  double warnings = 0;
  double retrainings = 0;
  double rules_active = 0;
  for (const Oracle& oracle : oracles) {
    warnings += static_cast<double>(oracle.warnings.size());
    retrainings += static_cast<double>(oracle.retrainings);
    rules_active += static_cast<double>(oracle.rules_active);
  }
  out.add("predict.warnings", warnings, "count");
  out.add("predict.rules_active", rules_active, "count");
  out.add("online.retrainings", retrainings, "count");
  out.add("trace.overhead_s", median(traced_s) - median(untraced_s), "s");
  return out;
}

}  // namespace

Outcome run_daemon_records(const Options& options) {
  Outcome out;
  online::DriverConfig driver;
  driver.training_weeks = 4;
  driver.retrain_weeks = 4;
  Setup setup;
  setup.config.reactors = kReactors;
  setup.config.engine = online::sharded_config_from_driver(driver, kShards);

  loggen::MachineProfile profile = loggen::MachineProfile::anl();
  profile.weeks = kRecordWeeks;
  logio::VectorSink sink;
  loggen::LogGenerator(profile, options.seed).generate(sink);
  std::vector<Feed<bgl::RasRecord>> feeds(1);
  Feed<bgl::RasRecord>& feed = feeds.front();
  feed.items = sink.take();
  preprocess::StreamingPipeline pipeline(kThreshold);
  for (const auto& record : feed.items) {
    feed.times.push_back(record.event_time);
    if (auto event = pipeline.push(record)) feed.events.push_back(*event);
  }
  feed.scored_from = feed.items.front().event_time +
                     driver.training_weeks * kSecondsPerWeek;
  out.note("log_weeks", std::to_string(kRecordWeeks));
  out.note("raw_records", static_cast<double>(feed.items.size()));
  out.note("unique_events", static_cast<double>(feed.events.size()));
  out = run_daemon(options, setup, feeds, kRecordLadder, std::move(out));
  if (!options.trace) return out;

  // The pump's preprocessing, stage by stage over the same records.
  Tracer tracer;
  std::size_t next = 0;
  const PreprocessOutput pre = traced_preprocess(
      [&](std::vector<bgl::RasRecord>& chunk) {
        const std::size_t n = std::min(kTraceChunk, feed.items.size() - next);
        chunk.assign(feed.items.begin() + next,
                     feed.items.begin() + next + n);
        next += n;
        return n > 0;
      },
      kThreshold, &tracer);
  out.check("traced preprocess events vs StreamingPipeline",
            pre.events == feed.events ? 0 : 1);
  auto spans = tracer.total_seconds();
  for (const char* stage : {"categorize", "temporal", "spatial"}) {
    const std::string name = std::string("preprocess.") + stage;
    out.add(name + "_s", spans[name], "s");
  }
  add_preprocess_counts(out, pre.stats);
  return out;
}

Outcome run_daemon_events(const Options& options) {
  Outcome out;
  // Trains once on the 26 weeks before the tiles, then serves them with
  // no further retraining.
  online::DriverConfig driver;
  driver.training_weeks = 26;
  driver.retrain_weeks = 100000;
  Setup setup;
  setup.streams = 2;
  setup.config.reactors = kReactors;
  setup.config.engine = online::sharded_config_from_driver(driver, kShards);

  // Each stream is its own machine: the log of stream s comes from seed
  // 2 * seed + s.
  std::vector<Feed<bgl::Event>> feeds(setup.streams);
  for (std::size_t s = 0; s < setup.streams; ++s) {
    const logio::EventStore store(
        loggen::LogGenerator(loggen::MachineProfile::anl(),
                             2 * options.seed + s)
            .generate_unique_events());
    const TimeSec serve_after =
        store.first_time() + driver.training_weeks * kSecondsPerWeek;
    const bench::ScaleCorpus corpus =
        bench::build_scale_corpus(store, serve_after, /*quick=*/true);
    Feed<bgl::Event>& feed = feeds[s];
    const auto history = store.between(store.first_time(), serve_after);
    feed.items.assign(history.begin(), history.end());
    feed.items.insert(feed.items.end(), corpus.serving.begin(),
                      corpus.serving.begin() +
                          std::min(kServingEvents, corpus.serving.size()));
    for (const auto& event : feed.items) feed.times.push_back(event.time);
    feed.events = feed.items;
    feed.scored_from = serve_after;
    const std::string stream = "stream" + std::to_string(s) + "_";
    out.note(stream + "training_events", static_cast<double>(history.size()));
    out.note(stream + "slice_events",
             static_cast<double>(corpus.serving_slice_events));
    out.note(stream + "serving_events",
             static_cast<double>(feed.items.size() - history.size()));
  }
  return run_daemon(options, setup, feeds, kEventLadder, std::move(out));
}

}  // namespace perfbench
