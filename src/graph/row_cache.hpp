// Blocked LRU distance-row cache — the memory layer behind the budgeted
// swap scans (core/swap_engine.hpp).
//
// The dense scans read one shared n×n unmasked slab, which is the
// allocation that stops them at n = 10⁵–10⁶. A budgeted scan reads the same
// unmasked rows d(x, ·) of the snapshot through this cache instead, under
// an explicit byte budget, and turns them into rows of G − v by the same
// repair the dense scan runs over slab rows (graph/masked_repair.hpp,
// DESIGN.md §17) — one scan body serves both storage modes:
//
//  * Storage is carved into fixed-size BLOCKS of `block_rows` row slots.
//    A block is an allocation arena, not an address range of sources — any
//    slot can hold any source's row, so scattered access patterns (neighbor
//    rows, surviving candidates) pack densely instead of dragging in
//    64-aligned strangers.
//  * A miss materializes the row by exact BFS (`bfs_batch_capped`, the
//    positional twin of `csr_apsp_rows_capped`): misses queued by
//    prefetch() fill contiguous slots of one block in ≤ 64-source
//    bit-parallel batches, single-row misses via row() pay one queue
//    traversal. Exactness is inherited from the traversal kernels — the
//    cache never approximates, it only decides residency.
//  * Eviction is LRU at block granularity: when every block is full the
//    least-recently-touched block is recycled wholesale (its owners drop
//    out of the index). Block-level LRU keeps the metadata O(blocks) and
//    matches the scan access pattern, where rows fetched together die
//    together. With ≥ 2 blocks the most recently touched block is never
//    the victim, so the row pointer returned by the LAST row()/prefetch()
//    call stays valid until the next materializing call — the only
//    lifetime the scan loops in core/swap_engine.cpp need.
//  * begin_context() drops every resident row in O(1) via an epoch stamp
//    while the block storage is reused allocation-free. The scans call it
//    once per agent, so residency never outlives an agent scan and the
//    cache holds at most what one agent reads.
//
// Width saturation follows the engine contract (graph/dist_width.hpp): a
// fill that meets a finite distance above `max_finite` reports failure and
// the caller redoes the scan at the wider width. Stats (hits / misses /
// evictions / peak bytes) feed bench_engine_json's row_cache section and
// the differential suite's thrash assertions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace bncg {

/// Residency counters of one RowCache. Cumulative across contexts until
/// reset_stats(); peak_bytes tracks the allocation high-water mark.
struct RowCacheStats {
  std::uint64_t hits = 0;        ///< row() calls served from a resident slot
  std::uint64_t misses = 0;      ///< rows materialized by BFS
  std::uint64_t evictions = 0;   ///< blocks recycled while holding live rows
  std::uint64_t contexts = 0;    ///< begin_context() calls (≈ agent scans)
  std::uint64_t peak_bytes = 0;  ///< high-water mark of block storage bytes
};

/// Fixed-budget cache of unmasked distance rows, one instantiation per
/// storage width (u8/u16). Not thread-safe: one cache per scan scratch.
template <typename Dist>
class RowCache {
 public:
  RowCache() = default;

  /// Sizes the cache for n-entry rows under `budget_bytes` of row storage.
  /// Blocks hold up to 64 rows (one bit-parallel batch) and shrink to fit
  /// small budgets; at least TWO blocks are always provisioned (the minimum
  /// for the pointer-stability guarantee above). Throws std::invalid_argument
  /// when the budget cannot hold even two single-row blocks — there is no
  /// smaller exact configuration to degrade to. A no-op when n and the
  /// budget are the ones already configured: storage is kept for reuse.
  void configure(Vertex n, std::uint64_t budget_bytes);

  /// Starts a new context over the snapshot `g`: resident rows of any
  /// previous context become invisible (O(1) epoch bump), storage is kept.
  /// The snapshot reference must outlive the context.
  void begin_context(const CsrGraph& g, Dist inf_value, Dist max_finite);

  /// The distance row of `source` in the current context, materializing it
  /// on miss. Returns nullptr when the fill saturates the width (caller
  /// falls back to the wider width, exactly like a dense saturating sweep).
  /// The pointer is valid until the next row()/prefetch() call.
  [[nodiscard]] const Dist* row(Vertex source, BatchBfsWorkspace& ws);

  /// Materializes every missing row of `sources` in ≤ 64-source batches
  /// (cheaper than row()-at-a-time for clustered misses). False on width
  /// saturation. Prefetching more rows than the cache holds is allowed —
  /// later batches evict earlier ones; subsequent row() calls refetch.
  [[nodiscard]] bool prefetch(std::span<const Vertex> sources, BatchBfsWorkspace& ws);

  /// True when `source`'s row is resident in the current context — i.e. it
  /// was materialized and has not been evicted.
  [[nodiscard]] bool resident(Vertex source) const;

  /// Every source with a resident row in the current context, ascending.
  [[nodiscard]] std::vector<Vertex> resident_sources() const;

  [[nodiscard]] const RowCacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = RowCacheStats{}; }

  /// Rows per block / block count actually provisioned (post-configure).
  [[nodiscard]] Vertex block_rows() const noexcept { return block_rows_; }
  [[nodiscard]] std::size_t max_blocks() const noexcept { return max_blocks_; }
  [[nodiscard]] std::uint64_t budget_bytes() const noexcept { return budget_; }

 private:
  struct Block {
    AlignedVec<Dist> data;        // block_rows_ × n row slots
    std::vector<Vertex> owners;   // source of each used slot
    std::uint64_t last_touch = 0; // LRU clock value of the latest access
    Vertex used = 0;              // slots filled in the current context
  };

  /// Block with a free slot, allocating/evicting as needed; marks it MRU.
  [[nodiscard]] std::size_t writable_block();
  void touch(std::size_t block) { blocks_[block].last_touch = ++clock_; }
  [[nodiscard]] bool fill_batch(std::span<const Vertex> sources, BatchBfsWorkspace& ws);

  const CsrGraph* csr_ = nullptr;
  Dist inf_value_ = 0;
  Dist max_finite_ = 0;

  Vertex n_ = 0;
  Vertex block_rows_ = 0;
  std::size_t max_blocks_ = 0;
  std::uint64_t budget_ = 0;

  std::vector<Block> blocks_;
  std::uint64_t clock_ = 0;

  // Source → (block, slot) index, valid iff stamp_[source] == epoch_.
  std::vector<std::uint32_t> slot_block_;
  std::vector<std::uint32_t> slot_index_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;

  std::vector<Vertex> missing_;  // prefetch scratch

  RowCacheStats stats_;
};

extern template class RowCache<std::uint8_t>;
extern template class RowCache<std::uint16_t>;

}  // namespace bncg
