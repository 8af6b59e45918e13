#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace bncg {

namespace {

// Set while this thread executes chunks of a pool job; nested parallel_for
// calls consult these to run inline under the same lane id.
thread_local bool tl_in_region = false;
thread_local unsigned tl_tid = 0;

unsigned default_lanes() noexcept {
  if (const char* env = std::getenv("BNCG_THREADS"); env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(std::min(v, long{256}));
    return 1;  // explicit but unusable value: stay serial rather than guess
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : std::min(hc, 256u);
}

/// RAII region marker so exceptions unwinding through run_lanes still
/// restore the thread-local state.
struct RegionGuard {
  bool prev_in;
  unsigned prev_tid;
  RegionGuard(unsigned tid) noexcept : prev_in(tl_in_region), prev_tid(tl_tid) {
    tl_in_region = true;
    tl_tid = tid;
  }
  ~RegionGuard() noexcept {
    tl_in_region = prev_in;
    tl_tid = prev_tid;
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  // One-job-at-a-time gate for top-level callers. try_lock: a loser runs
  // its range inline instead of queueing (see header).
  std::mutex job_mutex;

  // Job handoff state, guarded by m except where noted.
  std::mutex m;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t generation = 0;
  unsigned pending = 0;
  bool stop = false;
  std::exception_ptr exc;  // first exception of the current job

  // Current job; written under m before the generation bump, read by lanes
  // without m (the generation handshake publishes them).
  RawFn fn = nullptr;
  void* ctx = nullptr;
  std::uint64_t count = 0;
  std::uint64_t grain = 1;
  std::atomic<std::uint64_t> cursor{0};
  std::atomic<bool> failed{false};
};

ThreadPool::ThreadPool(unsigned lanes) : impl_(std::make_unique<Impl>()) {
  lanes_ = std::clamp(lanes, 1u, 256u);
  impl_->workers.reserve(lanes_ - 1);
  for (unsigned tid = 1; tid < lanes_; ++tid) {
    impl_->workers.emplace_back([this, tid] { worker_main(tid); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(impl_->m);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool{default_lanes()};
  return pool;
}

void ThreadPool::run_lanes(unsigned tid) noexcept {
  Impl& im = *impl_;
  const RegionGuard guard{tid};
  for (;;) {
    const std::uint64_t begin = im.cursor.fetch_add(im.grain, std::memory_order_relaxed);
    if (begin >= im.count) break;
    const std::uint64_t end = std::min(begin + im.grain, im.count);
    try {
      im.fn(im.ctx, begin, end, tid);
    } catch (...) {
      if (!im.failed.exchange(true, std::memory_order_acq_rel)) {
        std::lock_guard lk(im.m);
        im.exc = std::current_exception();
      }
      // Stop handing out new chunks; lanes mid-chunk finish on their own.
      im.cursor.store(im.count, std::memory_order_relaxed);
      break;
    }
  }
}

void ThreadPool::worker_main(unsigned tid) {
  Impl& im = *impl_;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lk(im.m);
      im.cv_work.wait(lk, [&] { return im.stop || im.generation != seen; });
      if (im.stop) return;
      seen = im.generation;
    }
    run_lanes(tid);
    {
      std::lock_guard lk(im.m);
      if (--im.pending == 0) im.cv_done.notify_one();
    }
  }
}

void ThreadPool::run(std::uint64_t count, std::uint64_t grain, RawFn fn, void* ctx) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  Impl& im = *impl_;

  const auto run_inline = [&](unsigned tid) {
    const RegionGuard guard{tid};
    fn(ctx, 0, count, tid);
  };

  // Nested call from inside a pool task: same lane, inline — per-lane
  // scratch indexed by tid stays single-owner.
  if (tl_in_region) {
    run_inline(tl_tid);
    return;
  }
  // One lane, or one chunk: there is nothing to share, so run it as lane 0
  // without waking the workers.
  if (lanes_ == 1 || count <= grain) {
    run_inline(0);
    return;
  }

  // Another thread's top-level job owns the workers: degrade to serial
  // rather than block (concurrent certifies on distinct engines — each
  // owns its scratch, and each inline caller is lane 0 of its own region).
  std::unique_lock job(im.job_mutex, std::try_to_lock);
  if (!job.owns_lock()) {
    run_inline(0);
    return;
  }

  {
    std::lock_guard lk(im.m);
    im.fn = fn;
    im.ctx = ctx;
    im.count = count;
    im.grain = grain;
    im.cursor.store(0, std::memory_order_relaxed);
    im.failed.store(false, std::memory_order_relaxed);
    im.exc = nullptr;
    im.pending = static_cast<unsigned>(im.workers.size());
    ++im.generation;
  }
  im.cv_work.notify_all();

  run_lanes(0);

  std::exception_ptr exc;
  {
    std::unique_lock lk(im.m);
    im.cv_done.wait(lk, [&] { return im.pending == 0; });
    exc = im.exc;
    im.exc = nullptr;
  }
  if (exc) {
    job.unlock();
    std::rethrow_exception(exc);
  }
}

}  // namespace bncg
