// perfbench — the repository's end-to-end benchmark: raw RAS log in,
// warnings out, on four workloads (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//   perfbench --self-test
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1).  The line before it records the run's
// fingerprint.  Any failed output check exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/simd.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Name {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric; each workload reports all of them.
constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},
    {"replay_per_s", "1/s"},
    {"precision", "ratio"},
    {"recall", "ratio"},
    {"sustained_per_s", "1/s"},
    {"warn_latency_p50_ms", "ms"},
    {"warn_latency_p99_ms", "ms"},
    {"ok_frac", "ratio"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric.  A layer a workload does not exercise reads
/// 0 there.
constexpr Name kPerLayer[] = {
    {"logio.parse_s", "s"},
    {"logio.mb_per_s", "MB/s"},
    {"logio.records_skipped", "count"},
    {"bgl.taxonomy_init_s", "s"},
    {"preprocess.categorize_s", "s"},
    {"preprocess.temporal_s", "s"},
    {"preprocess.spatial_s", "s"},
    {"preprocess.unclassified", "count"},
    {"preprocess.after_temporal", "count"},
    {"preprocess.unique_events", "count"},
    {"preprocess.compression", "ratio"},
    {"storage.open_s", "s"},
    {"storage.scan_s", "s"},
    {"online.retrain_s", "s"},
    {"online.retrainings", "count"},
    {"online.serve_s", "s"},
    {"online.backlog_events", "count"},
    {"learners.association_s", "s"},
    {"learners.correlation_s", "s"},
    {"learners.statistical_s", "s"},
    {"learners.distribution_s", "s"},
    {"meta.ensemble_s", "s"},
    {"predict.revise_s", "s"},
    {"predict.warnings", "count"},
    {"predict.rules_active", "count"},
    {"net.send_blocked_s", "s"},
    {"net.frames", "count"},
    {"net.bytes", "B"},
    {"net.wire_encode_s", "s"},
    {"net.wire_decode_s", "s"},
    {"net.retry_after", "count"},
    {"net.warnings_dropped", "count"},
    {"net.delivered_before_finish_frac", "ratio"},
    {"gen.late_ms_p99", "ms"},
    {"trace.overhead_s", "s"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload replay_text|retrain_chain|"
               "daemon_records|daemon_events\n"
               "                 --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n"
               "       perfbench --self-test\n");
  return 2;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

void print_fingerprint(const Options& options, const Outcome& outcome) {
  const char* sha = std::getenv("PERFBENCH_SOURCE_SHA");
  std::string line = "{\"fingerprint\": {";
  line += "\"cpu\": " + json_string(cpu_model());
  line += ", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency());
  line += ", \"simd\": " +
          json_string(std::string(
              dml::simd::to_string(dml::simd::best_variant())));
  line += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  line += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  line += ", \"source_sha\": " + json_string(sha != nullptr ? sha : "unknown");
  line += ", \"workload\": " + json_string(options.workload);
  line += ", \"seed\": " + std::to_string(options.seed);
  line += ", \"seconds\": " + json_number(options.seconds);
  line += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  for (const auto& [key, value] : outcome.info) {
    line += ", " + json_string(key) + ": " + json_string(value);
  }
  line += "}, \"checks_failed\": [";
  for (std::size_t i = 0; i < outcome.check_failures.size(); ++i) {
    line += (i > 0 ? ", " : "") + json_string(outcome.check_failures[i]);
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
}

/// Puts the reported metrics in the published order, filling per-layer
/// metrics a workload has no layer for with 0; a missing end-to-end
/// metric or a non-finite value fails the run.
std::vector<Metric> published(Outcome& outcome, bool trace) {
  std::vector<Metric> metrics;
  const auto add = [&](const Name& name, bool required) {
    for (const Metric& m : outcome.metrics) {
      if (m.name != name.name) continue;
      if (!std::isfinite(m.value)) {
        outcome.check_failures.push_back(m.name + " is not finite");
        metrics.push_back({m.name, 0.0, name.unit});
      } else {
        metrics.push_back({m.name, m.value, name.unit});
      }
      return;
    }
    if (required) {
      outcome.check_failures.push_back(std::string(name.name) +
                                       " was not measured");
    }
    metrics.push_back({name.name, 0.0, name.unit});
  };
  if (trace) {
    for (const Name& name : kPerLayer) add(name, false);
  } else {
    for (const Name& name : kEndToEnd) add(name, true);
  }
  return metrics;
}

int run(const Options& options) {
  Outcome outcome;
  if (options.workload == "replay_text") {
    outcome = run_replay_text(options);
  } else if (options.workload == "retrain_chain") {
    outcome = run_retrain_chain(options);
  } else if (options.workload == "daemon_records") {
    outcome = run_daemon_records(options);
  } else if (options.workload == "daemon_events") {
    outcome = run_daemon_events(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return usage();
  }
  if (options.trace) outcome.note("spans", options.spans_path);
  const std::vector<Metric> metrics = published(outcome, options.trace);
  print_fingerprint(options, outcome);
  for (const std::string& failure : outcome.check_failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  std::fprintf(stderr,
               "perfbench: %s attempted %llu failed %llu (failed_frac %.3g)\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed),
               outcome.attempted > 0
                   ? static_cast<double>(outcome.failed) /
                         static_cast<double>(outcome.attempted)
                   : 0.0);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "perfbench:   %-34s %.6g %s\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  }
  const bool correct = outcome.check_failures.empty();
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false");
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i > 0 ? ", " : "") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.work_dir = ".";
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return run_self_tests() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0;
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  options.spans_path = options.work_dir + "/spans-" + options.workload +
                       "-seed" + std::to_string(options.seed) + ".json";
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
