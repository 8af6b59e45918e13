#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <utility>

#include "workload.hpp"

namespace perfbench {

namespace {

/// Length of the union of [start, end) intervals, each clipped to [lo, hi).
double union_length(std::vector<std::pair<double, double>> intervals, double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    const double from = std::max(a, reach);
    if (b > from) {
      total += b - from;
      reach = b;
    }
  }
  return total;
}

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int Tracer::begin(const std::string& name, int parent) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, t, t, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = t;
}

int Tracer::reserve(const std::string& name, int parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, 0, 0, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::set_times(int id, double start, double end) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.start = start;
  span.end = end;
}

std::vector<Span> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  const std::vector<Span> spans = snapshot();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[layer_of(s.name)] += (s.end - s.start) - union_length(children[i], s.start, s.end);
  }
  return self;
}

double Tracer::covered_by_descendants(int id) const {
  const std::vector<Span> spans = snapshot();
  // Spans are appended after their parents, so one forward pass marks
  // every descendant of `id`.
  std::vector<char> inside(spans.size(), 0);
  std::vector<std::pair<double, double>> intervals;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p == id || (p > id && inside[static_cast<std::size_t>(p)])) {
      inside[i] = 1;
      intervals.emplace_back(spans[i].start, spans[i].end);
    }
  }
  const Span& root = spans.at(static_cast<std::size_t>(id));
  return union_length(std::move(intervals), root.start, root.end);
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const double t0 = spans.empty() ? 0 : spans.front().start;
  out << std::setprecision(9) << "{\"run_id\": \"" << json_escape(run_id_) << "\", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": \"" << json_escape(s.name) << "\", \"start_s\": " << (s.start - t0)
        << ", \"end_s\": " << (s.end - t0) << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace perfbench
