// Tests of the benchmark's own logic: latency attribution, failure
// accounting, rung choice and span arithmetic.  Run with
// `perfbench --self-test` (or `python3 perfbench/run.py --self-test`).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "openloop.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::fprintf(stderr, "perfbench self-test: %s %s\n", ok ? "ok  " : "FAIL",
               what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-6; }

void test_latency_attribution() {
  // Four items at event times 100..400, due every 100 ms.
  const std::vector<dml::TimeSec> times = {100, 200, 300, 400};
  const std::vector<double> due = {0.0, 0.1, 0.2, 0.3};
  const std::vector<Receipt> receipts = {
      {200, 0.15},  // trigger item 1 (due 0.1): 50 ms
      {250, 0.35},  // tick-fired, no item at 250: trigger item 2, 150 ms
      {100, 0.05},  // trigger item 0: 50 ms
      {900, 0.40},  // issued after the last item: attributed to it, 100 ms
  };
  const auto latencies = warning_latencies_ms(times, due, receipts);
  expect(latencies.size() == 4 && near(latencies[0], 50.0) &&
             near(latencies[1], 150.0) && near(latencies[2], 50.0) &&
             near(latencies[3], 100.0),
         "synthetic schedule gives the known latencies (incl. a tick)");
  expect(near(quantile(latencies, 0.5), 50.0) &&
             near(quantile(latencies, 0.99), 150.0),
         "nearest-rank percentiles of the synthetic latencies");
}

void test_oracle_mismatch_counts() {
  dml::predict::Warning a;
  a.issued_at = 10;
  a.deadline = 310;
  a.rule_id = 1;
  dml::predict::Warning b = a;
  b.rule_id = 2;
  dml::predict::Warning c = a;
  c.category = 7;
  const std::vector<dml::predict::Warning> oracle = {a, b, b};
  const std::vector<dml::predict::Warning> served = {b, a, c};
  Outcome outcome;
  outcome.attempted = 100;
  outcome.check("served vs oracle", multiset_mismatch(served, oracle));
  expect(outcome.failed == 2 && outcome.check_failures.size() == 1,
         "an injected oracle mismatch is counted as failed operations");
  expect(near(ok_frac(outcome), 0.98), "ok_frac = 1 - failed/attempted");
  Outcome clean;
  clean.attempted = 3;
  clean.check("equal multisets",
              multiset_mismatch(oracle, {b, a, b}));
  expect(clean.failed == 0 && clean.check_failures.empty(),
         "equal multisets in another order are no mismatch");
}

void test_rung_choice() {
  std::vector<Rung> rungs = {
      {1e5, 1e5, 10.0, 0.0},
      {2e5, 2e5, 20.0, 1.0},
      // Latency still under the limit, but the generator falls further
      // behind all run long: the backlog is growing.
      {3e5, 2.6e5, 30.0, 400.0},
      {4e5, 2.7e5, 5000.0, 900.0},
  };
  auto best = sustained_rung(rungs, 1000.0, 50.0);
  expect(best && *best == 1,
         "a rung with a growing backlog is not sustained");
  rungs[2].late_growth_ms = 0.0;
  best = sustained_rung(rungs, 1000.0, 50.0);
  expect(best && *best == 2, "the highest steady rung under the limit wins");
  for (auto& rung : rungs) rung.latency_p99_ms = 2000.0;
  expect(!sustained_rung(rungs, 1000.0, 50.0).has_value(),
         "no rung qualifies when every p99 misses the limit");

  std::vector<double> late;
  for (int i = 0; i < 100; ++i) late.push_back(i * 2.0);
  const Lateness growing = summarize_lateness(late);
  expect(growing.growth_ms > 100.0, "steadily rising lateness is growth");
  const Lateness steady = summarize_lateness(std::vector<double>(100, 3.0));
  expect(near(steady.growth_ms, 0.0) && near(steady.p99_ms, 3.0),
         "constant lateness does not grow");
}

void test_span_self_time() {
  Tracer tracer;
  {
    Tracer::Scope outer(&tracer, "online.retrain");
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    tracer.add_reported("learners.association", 0.001);
    Tracer::Scope inner(&tracer, "storage.scan");
  }
  const auto total = tracer.total_seconds();
  const auto self = tracer.self_seconds();
  const double children =
      total.at("learners.association") + total.at("storage.scan");
  expect(near(self.at("online.retrain"),
              total.at("online.retrain") - children),
         "self time is duration minus the children's time");
  expect(near(tracer.layer_self_seconds().at("learners"), 0.001),
         "layer self time sums its spans");
  expect(tracer.spans()[1].parent == 0 && tracer.spans()[2].parent == 0,
         "spans record the span that caused them");
}

}  // namespace

int run_self_tests() {
  test_latency_attribution();
  test_oracle_mismatch_counts();
  test_rung_choice();
  test_span_self_time();
  std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
