#include "trace.hpp"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now() const { return seconds_between(origin_, Clock::now()); }

int Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.start = now();
  spans_.push_back(std::move(span));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now();
  current_ = spans_[static_cast<std::size_t>(index)].parent;
}

void Tracer::add_reported(const std::string& name, double seconds) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.end = now();
  span.start = span.end - seconds;
  spans_.push_back(std::move(span));
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

std::map<std::string, double> Tracer::total_seconds() const {
  std::map<std::string, double> totals;
  for (const Span& span : spans_) totals[span.name] += span.end - span.start;
  return totals;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
    }
  }
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    totals[spans_[i].name] += self[i];
  }
  return totals;
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  std::map<std::string, double> layers;
  for (const auto& [name, seconds] : self_seconds()) {
    layers[name.substr(0, name.find('.'))] += seconds;
  }
  return layers;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"layer_self_s\": {");
  bool first = true;
  for (const auto& [layer, seconds] : layer_self_seconds()) {
    std::fprintf(file, "%s\"%s\": %.9f", first ? "" : ", ", layer.c_str(),
                 seconds);
    first = false;
  }
  std::fprintf(file, "},\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d}%s\n",
                 i, span.name.c_str(), span.start, span.end, span.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
