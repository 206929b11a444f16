// dmlfp_loadgen — loopback load generator for dmlfpd (DESIGN.md §12).
//
// Two phases, reported into results/BENCH_daemon.json:
//
//   throughput  M parallel streams of synthetic categorized events
//               against an untrained engine (the training delay never
//               elapses), measuring client-observed acknowledged
//               events/second — the wire + admission + engine-fan-in
//               ceiling, uncontaminated by retraining.
//   latency     one generated ANL-profile corpus streamed with a short
//               training span so rules exist and warnings flow;
//               ingest-to-warning latency is measured against batch
//               flush watermarks (the wall clock when the batch
//               containing the warning's trigger was acknowledged),
//               reported as p50/p99.
//
// By default the daemon runs in-process (each phase gets its own,
// configured for that phase); --port targets an external dmlfpd, whose
// engine flags then apply to both phases.
//
//   dmlfp_loadgen --quick --out results/BENCH_daemon.json
//   dmlfp_loadgen --events 8000000 --streams 8 --shards 2
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bgl/location.hpp"
#include "bgl/record.hpp"
#include "loggen/generator.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "online/driver.hpp"
#include "online/sharded_engine.hpp"
#include "support/flags.hpp"

namespace {

using namespace dml;
using tools::Flags;
using Clock = std::chrono::steady_clock;

int usage() {
  std::fprintf(
      stderr,
      "usage: dmlfp_loadgen [flags]\n"
      "  --quick              CI-sized run (fewer events, smaller corpus)\n"
      "  --out FILE           JSON report (default results/BENCH_daemon.json)\n"
      "  --host ADDR --port N target an external dmlfpd instead of the\n"
      "                       in-process daemon\n"
      "  --events N           throughput phase: total events (default 4M)\n"
      "  --streams M          throughput phase: parallel streams, 1..256\n"
      "                       (default 4)\n"
      "  --batch N            events per INGEST frame (default 2048)\n"
      "  --shards N           in-process engine shards, 0..256 (default 2)\n"
      "  --reactors N         in-process reactor threads, 1..64 (default 2)\n"
      "  --seed S             corpus seed for the latency phase\n");
  return 2;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[index];
}

/// Synthetic categorized events: monotone times, locations striped
/// across midplanes so every engine shard sees traffic.
std::vector<bgl::Event> synthetic_events(std::size_t count,
                                         std::size_t offset) {
  std::vector<bgl::Event> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t n = offset + i;
    bgl::Event event;
    event.time = static_cast<TimeSec>(1 + n);
    event.category = static_cast<CategoryId>(1 + (n % 64));
    const int stripe = static_cast<int>(n & 7);
    event.location = bgl::Location::compute_chip(
        stripe >> 1, stripe & 1, static_cast<int>((n >> 3) & 15), 0, 0);
    events.push_back(event);
  }
  return events;
}

/// Owns either an in-process daemon or a connection target.
struct Target {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::unique_ptr<net::Daemon> daemon;  // null when external

  Target() = default;
  Target(Target&&) = default;
  Target& operator=(Target&&) = default;
  ~Target() {
    if (daemon) daemon->stop();
  }
};

Target make_target(const Flags& flags, const online::DriverConfig& driver) {
  Target target;
  target.host = flags.get_or("host", "127.0.0.1");
  if (flags.has("port")) {
    target.port = static_cast<std::uint16_t>(flags.get_long("port", 0));
    return target;
  }
  net::DaemonConfig config;
  config.reactors =
      static_cast<std::size_t>(flags.get_long("reactors", 2));
  config.engine = online::sharded_config_from_driver(
      driver, static_cast<std::size_t>(flags.get_long("shards", 2)));
  target.daemon = std::make_unique<net::Daemon>(config);
  target.daemon->start();
  target.port = target.daemon->port();
  return target;
}

struct ThroughputResult {
  std::size_t streams = 0;
  std::size_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t retries = 0;
};

ThroughputResult run_throughput(const Flags& flags, bool quick) {
  // An engine that never finishes its initial training span: serving
  // stays rule-free and the measurement isolates the transport.
  online::DriverConfig driver;
  driver.training_weeks = 100000;
  Target target = make_target(flags, driver);

  ThroughputResult result;
  result.streams =
      static_cast<std::size_t>(flags.get_long("streams", quick ? 2 : 4));
  result.events = static_cast<std::size_t>(
      flags.get_long("events", quick ? 400000 : 4000000));
  const std::size_t per_stream = result.events / result.streams;
  result.events = per_stream * result.streams;

  net::ClientConfig client_config;
  client_config.batch_events =
      static_cast<std::size_t>(flags.get_long("batch", 2048));

  std::vector<std::uint64_t> retries(result.streams, 0);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t s = 0; s < result.streams; ++s) {
    threads.emplace_back([&, s] {
      net::Client client(target.host, target.port, client_config);
      const auto opened =
          client.open_stream("loadgen-" + std::to_string(s));
      // Chunked generation keeps the resident set flat at high --events.
      constexpr std::size_t kChunk = 1 << 16;
      std::size_t sent = 0;
      while (sent < per_stream) {
        const std::size_t n = std::min(kChunk, per_stream - sent);
        const auto events = synthetic_events(n, sent);
        client.send_events(opened.stream_id, events);
        sent += n;
      }
      client.flush(opened.stream_id);
      client.finish_stream(opened.stream_id);
      retries[s] = client.retries();
    });
  }
  for (auto& thread : threads) thread.join();
  result.seconds = seconds_since(start);
  result.events_per_sec =
      result.seconds > 0
          ? static_cast<double>(result.events) / result.seconds
          : 0.0;
  for (const auto r : retries) result.retries += r;
  return result;
}

struct LatencyResult {
  std::size_t corpus_events = 0;
  std::size_t warnings = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

LatencyResult run_latency(const Flags& flags, bool quick) {
  // Short training span so rules are mined and warnings actually flow.
  online::DriverConfig driver;
  driver.training_weeks = 4;
  driver.retrain_weeks = 4;
  Target target = make_target(flags, driver);

  loggen::MachineProfile profile = loggen::MachineProfile::anl();
  profile.weeks = quick ? 8 : 16;
  const loggen::LogGenerator generator(
      profile, static_cast<std::uint64_t>(flags.get_long("seed", 1005)));
  const std::vector<bgl::Event> corpus = generator.generate_unique_events();

  LatencyResult result;
  result.corpus_events = corpus.size();

  net::Client client(target.host, target.port);
  const auto opened = client.open_stream(
      "latency", net::kOpenIngest | net::kOpenSubscribe);

  // Flush watermarks: (max event time sent, wall clock at ack).  A
  // warning's trigger is never later than the last event sent before
  // it, so the first watermark at or past issued_at bounds when its
  // trigger hit the daemon.
  std::vector<std::pair<TimeSec, Clock::time_point>> watermarks;
  std::vector<double> latencies_ms;
  const auto record = [&](const net::WarningMsg& warning,
                          Clock::time_point received) {
    const auto it = std::lower_bound(
        watermarks.begin(), watermarks.end(), warning.warning.issued_at,
        [](const auto& mark, TimeSec t) { return mark.first < t; });
    const auto sent_at = it != watermarks.end()
                             ? it->second
                             : watermarks.back().second;
    latencies_ms.push_back(std::max(
        0.0,
        std::chrono::duration<double, std::milli>(received - sent_at)
            .count()));
  };

  // Fine-grained flush watermarks: enough chunks that per-warning
  // latency is bounded by a small slice of the corpus, not the whole
  // stream arriving as one batch.
  const std::size_t chunk =
      std::clamp<std::size_t>(corpus.size() / 256, 64, 2000);
  for (std::size_t offset = 0; offset < corpus.size(); offset += chunk) {
    const std::size_t n = std::min(chunk, corpus.size() - offset);
    client.send_events(
        opened.stream_id,
        std::span<const bgl::Event>(corpus.data() + offset, n));
    client.flush(opened.stream_id);
    watermarks.emplace_back(corpus[offset + n - 1].time, Clock::now());
    const auto received = Clock::now();
    for (const auto& warning : client.take_warnings()) {
      record(warning, received);
    }
  }
  client.finish_stream(opened.stream_id);
  const auto received = Clock::now();
  for (const auto& warning : client.take_warnings()) {
    record(warning, received);
  }

  result.warnings = latencies_ms.size();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = percentile(latencies_ms, 0.50);
  result.p99_ms = percentile(latencies_ms, 0.99);
  return result;
}

bool write_report(const std::string& path, bool quick,
                  const ThroughputResult& throughput,
                  const LatencyResult& latency) {
  const std::filesystem::path out(path);
  if (out.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(out.parent_path(), ec);
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  std::fprintf(file,
               "{\n"
               "  \"benchmark\": \"dmlfp_daemon_loopback\",\n"
               "  \"quick\": %s,\n"
               "  \"throughput\": {\n"
               "    \"streams\": %zu,\n"
               "    \"events\": %zu,\n"
               "    \"seconds\": %.6f,\n"
               "    \"events_per_sec\": %.1f,\n"
               "    \"retries\": %llu\n"
               "  },\n"
               "  \"latency\": {\n"
               "    \"corpus_events\": %zu,\n"
               "    \"warnings\": %zu,\n"
               "    \"p50_ms\": %.3f,\n"
               "    \"p99_ms\": %.3f\n"
               "  }\n"
               "}\n",
               quick ? "true" : "false", throughput.streams,
               throughput.events, throughput.seconds,
               throughput.events_per_sec,
               static_cast<unsigned long long>(throughput.retries),
               latency.corpus_events, latency.warnings, latency.p50_ms,
               latency.p99_ms);
  return std::fclose(file) == 0;
}

using tools::FlagSpec;

constexpr auto kInt = FlagSpec::kInt;
constexpr FlagSpec kLoadgenFlags[] = {
    {"quick", FlagSpec::kSwitch}, {"out"}, {"host"}, {"port", kInt, 1, 65535},
    {"events", kInt, 1, tools::kMaxCount},
    {"streams", kInt, 1, tools::kMaxThreads}, {"batch", kInt, 1, 1 << 20},
    {"shards", kInt, 0, tools::kMaxThreads}, {"reactors", kInt, 1, 64},
    {"seed", kInt, 0, tools::kMaxCount}};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, 1, kLoadgenFlags);
  if (!flags.error().empty()) {
    std::fprintf(stderr, "dmlfp_loadgen: %s\n", flags.error().c_str());
    return usage();
  }
  if (flags.has("help")) return usage();
  const bool quick = flags.has("quick");
  const std::string out =
      flags.get_or("out", "results/BENCH_daemon.json");

  try {
    std::fprintf(stderr, "dmlfp_loadgen: throughput phase\n");
    const ThroughputResult throughput = run_throughput(flags, quick);
    std::fprintf(stderr,
                 "dmlfp_loadgen: %zu events over %zu stream(s) in %.2fs "
                 "= %.0f events/s (%llu retries)\n",
                 throughput.events, throughput.streams, throughput.seconds,
                 throughput.events_per_sec,
                 static_cast<unsigned long long>(throughput.retries));

    std::fprintf(stderr, "dmlfp_loadgen: latency phase\n");
    const LatencyResult latency = run_latency(flags, quick);
    std::fprintf(stderr,
                 "dmlfp_loadgen: %zu warnings from %zu events, "
                 "p50 %.2fms p99 %.2fms\n",
                 latency.warnings, latency.corpus_events, latency.p50_ms,
                 latency.p99_ms);

    if (!write_report(out, quick, throughput, latency)) {
      std::fprintf(stderr, "dmlfp_loadgen: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("dmlfp_loadgen: wrote %s\n", out.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmlfp_loadgen: %s\n", e.what());
    return 1;
  }
  return 0;
}
