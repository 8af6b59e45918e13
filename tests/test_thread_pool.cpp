// util/thread_pool.hpp — the long-lived static-partition pool behind every
// parallel certify/evaluate pass. Correctness here is load-bearing for the
// determinism story: parallel_for must cover every index exactly once for
// any lane count, grain, and nesting shape, and must propagate exceptions
// without wedging the workers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace bncg {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const unsigned lanes : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(lanes);
    ASSERT_EQ(pool.size(), lanes);
    for (const std::uint64_t count : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
      for (const std::uint64_t grain : {1ull, 4ull, 64ull, 10000ull}) {
        std::vector<std::atomic<std::uint32_t>> hits(count);
        pool.parallel_for(count, grain, [&](std::uint64_t i, unsigned tid) {
          ASSERT_LT(tid, lanes);
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::uint64_t i = 0; i < count; ++i) {
          EXPECT_EQ(hits[i].load(), 1u) << "lanes=" << lanes << " count=" << count
                                        << " grain=" << grain << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPool, LaneSlotsAreRaceFree) {
  // The per-lane scratch pattern every engine uses: lane-indexed
  // accumulators must add up to the serial total without synchronization
  // beyond the pool's own claim protocol.
  ThreadPool pool(4);
  constexpr std::uint64_t kCount = 4096;
  struct alignas(64) Lane {
    std::uint64_t sum = 0;
  };
  std::vector<Lane> lanes(pool.size());
  pool.parallel_for(kCount, 16, [&](std::uint64_t i, unsigned tid) { lanes[tid].sum += i; });
  std::uint64_t total = 0;
  for (const Lane& lane : lanes) total += lane.sum;
  EXPECT_EQ(total, kCount * (kCount - 1) / 2);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> ran{0};
  EXPECT_THROW(pool.parallel_for(256, 1,
                                 [&](std::uint64_t i, unsigned) {
                                   ran.fetch_add(1, std::memory_order_relaxed);
                                   if (i == 17) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exceptional drain.
  std::atomic<std::uint64_t> after{0};
  pool.parallel_for(64, 4, [&](std::uint64_t, unsigned) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 64u);
  EXPECT_GE(ran.load(), 1u);
}

TEST(ThreadPool, NestedCallsRunInlineOnTheCallersLane) {
  ThreadPool pool(4);
  std::atomic<bool> mismatch{false};
  pool.parallel_for(64, 1, [&](std::uint64_t, unsigned outer_tid) {
    pool.parallel_for(8, 1, [&](std::uint64_t, unsigned inner_tid) {
      if (inner_tid != outer_tid) mismatch.store(true, std::memory_order_relaxed);
    });
  });
  EXPECT_FALSE(mismatch.load());
}

TEST(ThreadPool, OneChunkRunsOnTheCallingThreadAsLaneZero) {
  // count ≤ grain is one chunk: it runs inline, without a job handoff.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::uint64_t count : {1ull, 7ull, 64ull}) {
    std::uint64_t ran = 0;
    pool.parallel_for(count, 64, [&](std::uint64_t, unsigned tid) {
      EXPECT_EQ(tid, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++ran;
    });
    EXPECT_EQ(ran, count);
  }
}

TEST(ThreadPool, ContendedTopLevelCallersFallBackInline) {
  // Two threads racing the same pool: the loser of the job lock runs its
  // whole range inline as lane 0. Both ranges must still cover exactly.
  ThreadPool pool(2);
  std::vector<std::atomic<std::uint32_t>> hits_a(512), hits_b(512);
  std::thread other([&] {
    pool.parallel_for(512, 1, [&](std::uint64_t i, unsigned) {
      hits_b[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  pool.parallel_for(512, 1, [&](std::uint64_t i, unsigned) {
    hits_a[i].fetch_add(1, std::memory_order_relaxed);
  });
  other.join();
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(hits_a[i].load(), 1u) << i;
    EXPECT_EQ(hits_b[i].load(), 1u) << i;
  }
}

TEST(ThreadPool, GlobalPoolIsSingletonAndSized) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
  EXPECT_LE(a.size(), 256u);
}

}  // namespace
}  // namespace bncg
