// Long-lived worker pool replacing the per-call `#pragma omp parallel`
// regions. One process-wide pool (global()), created on first use and kept
// for the process lifetime, so the hot certification loops stop paying
// thread startup/teardown per call and per-thread scratch (indexed by the
// stable lane id) stays warm across calls.
//
// Scheduling model: static lane count, dynamic chunk claiming. A
// parallel_for publishes one job — an index range [0, count) and a grain —
// and every lane (the caller participates as lane 0, the N−1 workers as
// lanes 1..N−1) repeatedly claims the next `grain`-sized chunk from a shared
// atomic cursor until the range is exhausted. That is the moral equivalent
// of OpenMP's `schedule(dynamic, grain)` — load-balanced without work
// stealing — and like it, the chunk→lane assignment is nondeterministic.
// Consumers therefore keep all outputs in per-index or per-lane slots and
// fold them in a deterministic serial order afterwards; nothing may depend
// on which lane ran a chunk. (That fold discipline is what replaced the old
// `#pragma omp critical` merges — see DESIGN.md §13.)
//
// Re-entrancy: a parallel_for issued from inside a pool task runs inline on
// the calling lane (same tid — per-lane scratch stays race-free), and a
// top-level parallel_for while another thread's job occupies the pool runs
// the whole range inline on the caller (as lane 0 of a one-lane region).
// Both fall out of one rule: only one job owns the workers at a time, and
// everyone else degrades to serial execution rather than deadlocking. The
// in-process service-dispatcher tests exercise exactly this: several
// std::threads certifying different engines concurrently.
//
// Exceptions: the first exception thrown by any chunk is captured, the
// cursor is slammed forward so lanes stop claiming new chunks (in-flight
// chunks finish), and the exception rethrows on the calling thread after
// the job fully drains — so scratch is quiescent when the caller's handler
// runs, like the serial code it replaced.
//
// Lane count: BNCG_THREADS (clamped to [1, 256]) if set, else
// hardware_concurrency, else 1. A one-lane pool spawns no threads and runs
// everything inline — the serial build is the degenerate case, not a
// special path. A range of one chunk (count ≤ grain) runs inline as lane 0
// too: publishing it would only make the caller wait for every worker to
// wake and find nothing to claim.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

namespace bncg {

class ThreadPool {
 public:
  /// Pool with `lanes` total execution lanes (callers participate, so
  /// `lanes == 1` means "no worker threads"). Values are clamped to
  /// [1, 256]. Prefer global() outside of tests.
  explicit ThreadPool(unsigned lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool: BNCG_THREADS lanes (else hardware concurrency),
  /// constructed on first use.
  [[nodiscard]] static ThreadPool& global();

  /// Total lanes (worker threads + the participating caller). Per-lane
  /// scratch arrays must hold exactly this many slots; body tids are
  /// always in [0, size()).
  [[nodiscard]] unsigned size() const noexcept { return lanes_; }

  /// Runs body(i, tid) for every i in [0, count), distributing
  /// `grain`-sized chunks across the lanes. Blocks until every index ran.
  /// The chunk→lane assignment is nondeterministic: callers write results
  /// to per-index or per-tid slots and fold serially afterwards.
  template <typename F>
  void parallel_for(std::uint64_t count, std::uint64_t grain, F&& body) {
    using Fn = std::remove_reference_t<F>;
    run(count, grain,
        [](void* ctx, std::uint64_t begin, std::uint64_t end, unsigned tid) {
          Fn& f = *static_cast<Fn*>(ctx);
          for (std::uint64_t i = begin; i < end; ++i) f(i, tid);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

 private:
  using RawFn = void (*)(void* ctx, std::uint64_t begin, std::uint64_t end, unsigned tid);

  void run(std::uint64_t count, std::uint64_t grain, RawFn fn, void* ctx);
  void run_lanes(unsigned tid) noexcept;
  void worker_main(unsigned tid);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  unsigned lanes_ = 1;
};

}  // namespace bncg
