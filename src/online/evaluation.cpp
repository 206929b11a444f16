#include "online/evaluation.hpp"

#include <algorithm>

namespace dml::online {

std::vector<SeriesPoint> accuracy_series(const DriverResult& result) {
  std::vector<SeriesPoint> series;
  series.reserve(result.intervals.size());
  for (const auto& interval : result.intervals) {
    series.push_back(
        {interval.week, interval.precision(), interval.recall()});
  }
  return series;
}

namespace {

double mean_of(const DriverResult& result, std::size_t warmup,
               double (IntervalResult::*metric)() const) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = warmup; i < result.intervals.size(); ++i) {
    sum += (result.intervals[i].*metric)();
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

double mean_precision(const DriverResult& result, std::size_t warmup_points) {
  return mean_of(result, warmup_points, &IntervalResult::precision);
}

double mean_recall(const DriverResult& result, std::size_t warmup_points) {
  return mean_of(result, warmup_points, &IntervalResult::recall);
}

VennCounts venn_over_range(const logio::EventStore& store, TimeSec begin,
                           TimeSec end,
                           const meta::KnowledgeRepository& association,
                           const meta::KnowledgeRepository& statistical,
                           const meta::KnowledgeRepository& distribution,
                           DurationSec window) {
  const auto test_events = store.between(begin, end);

  auto coverage = [&](const meta::KnowledgeRepository& repository) {
    predict::Predictor predictor(repository, window);
    std::vector<predict::Warning> warm_up;  // discarded
    predictor.observe(store.between(begin - window, begin), warm_up);
    const auto warnings = predictor.run(test_events, /*tick_interval=*/window);
    const auto evaluation =
        predict::evaluate_predictions(test_events, warnings, window);
    std::vector<bool> covered(evaluation.fatal_coverage_mask.size());
    for (std::size_t i = 0; i < covered.size(); ++i) {
      covered[i] = evaluation.fatal_coverage_mask[i] != 0;
    }
    return covered;
  };

  const auto by_ar = coverage(association);
  const auto by_sr = coverage(statistical);
  const auto by_pd = coverage(distribution);

  VennCounts venn;
  venn.total = by_ar.size();
  for (std::size_t i = 0; i < by_ar.size(); ++i) {
    const bool a = by_ar[i];
    const bool s = by_sr[i];
    const bool p = by_pd[i];
    if (a && s && p) {
      ++venn.all;
    } else if (a && s) {
      ++venn.ar_sr;
    } else if (a && p) {
      ++venn.ar_pd;
    } else if (s && p) {
      ++venn.sr_pd;
    } else if (a) {
      ++venn.only_ar;
    } else if (s) {
      ++venn.only_sr;
    } else if (p) {
      ++venn.only_pd;
    } else {
      ++venn.none;
    }
  }
  return venn;
}

}  // namespace dml::online
