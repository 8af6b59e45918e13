// In-memory span recorder of the traced benchmark run.
//
// A span is one timed call into a library layer: its name is
// "<layer>.<call>" (layer = the module path, e.g. "graph/bfs_batch"), its
// parent is the span that caused it, and every span of one run carries the
// run id. Spans stay in memory until write_json() at the end of the run.
// Recording takes a mutex: spans come from pool lanes and worker threads.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  ///< steady-clock seconds
  double end = 0;
  int parent = -1;   ///< index of the causing span, -1 for the run root
};

class Tracer {
 public:
  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Opens a span now; returns its id.
  int begin(const std::string& name, int parent);
  /// Closes span `id` now.
  void end(int id);
  /// Reserves a span whose times are filled later by set_times() — for a
  /// call whose start is only known after it returns.
  int reserve(const std::string& name, int parent);
  void set_times(int id, double start, double end);

  /// Runs `fn` inside a span and returns its duration in seconds.
  template <typename F>
  double timed(const std::string& name, int parent, F&& fn) {
    const int id = begin(name, parent);
    fn();
    end(id);
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_[static_cast<std::size_t>(id)].end - spans_[static_cast<std::size_t>(id)].start;
  }

  /// Self time summed per layer: each span's duration minus the part of
  /// its interval that its children cover.
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;

  /// Seconds of span `id`'s interval covered by at least one of its
  /// descendants — the part of that call the deeper spans explain.
  [[nodiscard]] double covered_by_descendants(int id) const;

  /// Writes {"run_id": ..., "spans": [...]} to `path`.
  void write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<Span> snapshot() const;

  std::string run_id_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
