// In-memory span recorder for the traced runs.  Spans are recorded by
// the benchmark's own code around its calls into each layer — never
// inside the program — and around chunks of work, not single records:
// a clock read per record is as expensive as the work it times.
//
// A span is named "<layer>.<what>" after the repository's modules
// (logio, bgl, preprocess, storage, learners, meta, predict, online,
// net).  The recorder is single-threaded: one benchmark thread owns it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    /// Seconds since the tracer was created.
    double start = 0.0;
    double end = 0.0;
    /// Index of the enclosing span in spans(), or -1 at top level.
    int parent = -1;
  };

  /// Opens a span on construction and closes it on destruction; does
  /// nothing when the tracer is disabled or null.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Tracer();

  /// Appends an already-measured span (used for durations the program
  /// reports about itself, e.g. per-learner build times) under the
  /// currently open span.
  void add_reported(const std::string& name, double seconds);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed duration of every span of that name.
  std::map<std::string, double> total_seconds() const;

  /// Per span name: total duration minus the time its child spans
  /// cover (self time), summed over every span of that name.
  std::map<std::string, double> self_seconds() const;

  /// Self time per layer (the name up to the first '.').
  std::map<std::string, double> layer_self_seconds() const;

  /// Writes every span plus the per-layer self times as JSON.
  bool write_json(const std::string& path) const;

 private:
  int open(const char* name);
  void close(int index);
  double now() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
