#include "graph/bfs_batch.hpp"

#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <type_traits>

namespace bncg {

/// Grants the traversal kernels access to workspace internals without
/// exposing mutable buffers in the public interface (mirrors BfsAccess).
struct BatchBfsAccess {
  static std::vector<std::uint64_t>& cur(BatchBfsWorkspace& ws) { return ws.cur_; }
  static std::vector<std::uint64_t>& next(BatchBfsWorkspace& ws) { return ws.next_; }
  static std::vector<std::uint64_t>& visited(BatchBfsWorkspace& ws) { return ws.visited_; }
  static std::vector<Vertex>& queue(BatchBfsWorkspace& ws) { return ws.queue_; }
  static std::vector<Vertex>& frontier(BatchBfsWorkspace& ws) { return ws.frontier_; }
  static std::vector<Vertex>& touched(BatchBfsWorkspace& ws) { return ws.touched_; }
  static std::vector<Vertex>& spare(BatchBfsWorkspace& ws) { return ws.spare_; }
  static std::vector<std::uint32_t>& stamp(BatchBfsWorkspace& ws) { return ws.stamp_; }
  template <typename Dist>
  static std::vector<Dist>& staging(BatchBfsWorkspace& ws) {
    if constexpr (std::is_same_v<Dist, std::uint8_t>) {
      return ws.rows8_;
    } else {
      return ws.rows16_;
    }
  }
};

namespace {

/// Plain queue BFS over the snapshot (the sparse / tiny-batch fallback).
/// Writes `inf_value` for unreachable entries and exact distances otherwise;
/// returns false (matrix row unspecified) when a finite distance would
/// exceed `max_finite`. Levels are tracked in Vertex width, so the
/// saturation test itself can never wrap the narrow storage type.
template <typename Dist>
[[nodiscard]] bool queue_bfs(const CsrGraph& g, Vertex src, MaskedEdge mask, Dist* dist,
                             std::vector<Vertex>& queue, Vertex masked_vertex, Dist inf_value,
                             Dist max_finite, BfsResult& result) {
  const Vertex n = g.num_vertices();
  std::fill(dist, dist + n, inf_value);
  queue.clear();
  queue.reserve(n);
  result = {};
  if (src == masked_vertex) return true;  // the vertex is absent: all-∞ row
  dist[src] = 0;
  queue.push_back(src);

  result.reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    const Vertex du = dist[u];
    result.dist_sum += du;
    result.ecc = std::max<Vertex>(result.ecc, du);
    const Vertex nd = du + 1;
    for (const Vertex t : g.neighbors(u)) {
      if (dist[t] != inf_value) continue;
      if (t == masked_vertex) continue;
      if (mask.active() && mask.hides(u, t)) continue;
      if (nd > max_finite) return false;  // saturated: unrepresentable finite distance
      dist[t] = static_cast<Dist>(nd);
      queue.push_back(t);
      ++result.reached;
    }
  }
  return true;
}

/// One completed level of bitparallel_levels: `words[u]` holds the bits
/// that settled at u at this level (zero for every other vertex), `bits`
/// their OR, and `list`, when the loop built one, the vertices with a
/// nonzero word.
struct SettledLevel {
  Vertex level;
  std::uint64_t bits;
  std::span<const std::uint64_t> words;
  const std::vector<Vertex>* list;
};

/// Word-parallel level-synchronous BFS: one frontier bit per source,
/// direction-optimizing per level. The level loop shared by the row and the
/// reach traversals.
///
/// Fat levels run the **pull** formulation: every unsaturated vertex ORs
/// its neighbors' previous-level frontier words in one streaming sweep over
/// the CSR arrays — sequential offset/target reads, no worklists, no
/// per-vertex hook and no branch on what arrived. Saturated vertices (every
/// source arrived) skip the gather, which makes late, mostly-settled levels
/// nearly free. Thin levels (frontier below n/8 vertices — the first couple
/// of hops from ≤ 64 sources, and the last stragglers) run a **push** step
/// instead: only the frontier's own edges are touched, with a level-stamped
/// first-touch scratch so nothing is zeroed per level. A pull level builds
/// the frontier list only when the next level will push. Both steps settle
/// identical bits at identical levels, so the mode sequence is invisible in
/// the output; the masked edge costs one extra comparison on whichever side
/// touches it.
///
/// `level_done(SettledLevel)` runs after each level that settled a bit,
/// level 0 being the sources themselves; returning false stops the
/// traversal. On return the workspace's visited words hold every bit
/// settled so far.
template <typename LevelDone>
void bitparallel_levels(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
                        BatchBfsWorkspace& ws, Vertex masked_vertex, LevelDone&& level_done) {
  const Vertex n = g.num_vertices();
  auto& cur = BatchBfsAccess::cur(ws);
  auto& next = BatchBfsAccess::next(ws);
  auto& visited = BatchBfsAccess::visited(ws);
  auto& frontier = BatchBfsAccess::frontier(ws);
  auto& touched = BatchBfsAccess::touched(ws);
  auto& spare = BatchBfsAccess::spare(ws);
  auto& stamp = BatchBfsAccess::stamp(ws);
  cur.assign(n, 0);
  next.resize(n);
  visited.assign(n, 0);
  stamp.assign(n, 0);
  frontier.clear();

  const std::uint64_t batch_mask =
      sources.size() == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << sources.size()) - 1;
  // A masked vertex starts saturated: it never settles, never enters a
  // frontier, and its cur word stays 0, so nothing traverses through it.
  if (masked_vertex < n) visited[masked_vertex] = batch_mask;
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const Vertex s = sources[i];
    if (s == masked_vertex) continue;  // absent source: reaches nothing
    if (cur[s] == 0) frontier.push_back(s);
    visited[s] |= std::uint64_t{1} << i;
    cur[s] |= std::uint64_t{1} << i;
    bits |= std::uint64_t{1} << i;
  }
  // The pull sweep's masked-edge endpoints (kNoVertex when unmasked).
  const Vertex mask_u = mask.active() ? mask.u : kNoVertex;
  const Vertex mask_v = mask.active() ? mask.v : kNoVertex;

  // Invariant at each loop top: cur[u] holds the bits settled at u at
  // `level` (zero elsewhere), and when `listed`, `frontier` lists exactly
  // the u with cur[u] != 0.
  Vertex level = 0;
  bool listed = true;
  while (bits != 0 &&
         level_done(SettledLevel{level, bits, cur, listed ? &frontier : nullptr})) {
    ++level;
    bits = 0;
    if (listed && frontier.size() * 8 < n) {
      // Push step: accumulate frontier words into next[] behind first-touch
      // stamps (no per-level zeroing), then settle only the touched list.
      touched.clear();
      for (const Vertex u : frontier) {
        const std::uint64_t word = cur[u];
        for (const Vertex t : g.neighbors(u)) {
          if (t == masked_vertex) continue;
          if (mask.active() && mask.hides(u, t)) [[unlikely]]
            continue;
          if (stamp[t] != level) {
            stamp[t] = level;
            next[t] = word;
            touched.push_back(t);
          } else {
            next[t] |= word;
          }
        }
      }
      spare.clear();
      for (const Vertex u : frontier) cur[u] = 0;
      for (const Vertex t : touched) {
        const std::uint64_t newly = next[t] & ~visited[t];
        if (newly == 0) continue;
        visited[t] |= newly;
        cur[t] = newly;
        bits |= newly;
        spare.push_back(t);
      }
      frontier.swap(spare);
    } else {
      // Pull step. Degree ≥ 8 gathers go through the dispatched or_gather
      // (8 words per AVX-512 gather); shorter lists are cheaper inline.
      std::size_t settled = 0;
      const simd::WordKernels& wk = simd::words();
      for (Vertex u = 0; u < n; ++u) {
        const std::uint64_t seen = visited[u];
        if (seen == batch_mask) {
          next[u] = 0;
          continue;
        }
        const auto nbrs = g.neighbors(u);
        std::uint64_t word = 0;
        if (u == mask_u || u == mask_v) [[unlikely]] {
          const Vertex other = u == mask_u ? mask_v : mask_u;
          for (const Vertex t : nbrs) {
            if (t != other) word |= cur[t];
          }
        } else if (nbrs.size() >= 8) {
          word = wk.or_gather(cur.data(), nbrs.data(), nbrs.size());
        } else {
          for (const Vertex t : nbrs) word |= cur[t];
        }
        const std::uint64_t newly = word & ~seen;
        next[u] = newly;
        visited[u] = seen | newly;
        bits |= newly;
        settled += newly != 0 ? 1 : 0;
      }
      std::swap(cur, next);
      listed = settled * 8 < n;
      if (listed) {
        frontier.clear();
        for (Vertex u = 0; u < n; ++u) {
          if (cur[u] != 0) frontier.push_back(u);
        }
      }
    }
  }
}

/// In-place 64×64 bit-matrix transpose: afterwards bit j of m[b] is bit b
/// of the original m[j]. Each round swaps the off-diagonal blocks of every
/// diagonal block pair, halving the block size (32, 16, …, 1).
void transpose64(std::array<std::uint64_t, 64>& m) {
  std::uint64_t low = 0x00000000FFFFFFFFull;  // low half of each block's rows
  for (int j = 32; j != 0; j >>= 1, low ^= low << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & low;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

/// Row-writing batch over bitparallel_levels. After each level one settle
/// pass writes the level into the distance rows of every bit that arrived,
/// and unreached entries are back-filled with `inf_value` at the end, so
/// the common connected case never pays an O(batch·n) infinity pre-fill.
///
/// The pass writes column by column — per vertex, one entry in each row
/// that gained it — in ascending u on a pull level, so the writes form
/// ≤ 64 interleaved sequential streams. When the row stride is a multiple
/// of 1 KiB, though, one vertex's ≤ 64 row lines share at most four L1 sets
/// and evict each other at every vertex (the u8 batch of the dense
/// G(2048, 32768) ran at ~3.4 ns per entry). Such strides write a pull
/// level tile by tile instead: 64 vertices' words are transposed into one
/// mask per row, and each row segment is written at once.
///
/// Returns false the moment any bit settles at a level above `max_finite`
/// (the exact saturation condition — a frontier that dies at max_finite is
/// not saturation).
template <typename Dist>
[[nodiscard]] bool bitparallel_batch(const CsrGraph& g, std::span<const Vertex> sources,
                                     MaskedEdge mask, Dist* rows, std::size_t stride,
                                     BatchBfsWorkspace& ws, Vertex masked_vertex, Dist inf_value,
                                     Dist max_finite) {
  const Vertex n = g.num_vertices();
  if (masked_vertex < n) {
    for (std::size_t i = 0; i < sources.size(); ++i) rows[i * stride + masked_vertex] = inf_value;
  }
  const bool tiled = stride * sizeof(Dist) % 1024 == 0;
  std::array<std::uint64_t, 64> tile;
  bool fits = true;
  bitparallel_levels(g, sources, mask, ws, masked_vertex, [&](const SettledLevel& settled) {
    if (settled.level > max_finite) {  // saturated: these settles are unrepresentable
      fits = false;
      return false;
    }
    const auto d = static_cast<Dist>(settled.level);
    const auto write_column = [&](Vertex u, std::uint64_t newly) {
      for (; newly != 0; newly &= newly - 1) {
        rows[static_cast<std::size_t>(std::countr_zero(newly)) * stride + u] = d;
      }
    };
    if (settled.list != nullptr) {
      for (const Vertex u : *settled.list) write_column(u, settled.words[u]);
      return true;
    }
    if (!tiled) {
      for (Vertex u = 0; u < n; ++u) write_column(u, settled.words[u]);
      return true;
    }
    for (Vertex base = 0; base < n; base += 64) {
      const Vertex width = std::min<Vertex>(64, n - base);
      std::uint64_t present = 0;
      for (Vertex j = 0; j < width; ++j) present |= tile[j] = settled.words[base + j];
      if (present == 0) continue;
      std::fill(tile.begin() + width, tile.end(), std::uint64_t{0});
      transpose64(tile);
      for (; present != 0; present &= present - 1) {
        const int b = std::countr_zero(present);
        Dist* row = rows + static_cast<std::size_t>(b) * stride + base;
        for (std::uint64_t m = tile[b]; m != 0; m &= m - 1) row[std::countr_zero(m)] = d;
      }
    }
    return true;
  });
  if (!fits) return false;

  // Back-fill unreached entries (no-op on connected graphs).
  const std::uint64_t batch_mask =
      sources.size() == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << sources.size()) - 1;
  const auto& visited = BatchBfsAccess::visited(ws);
  for (Vertex u = 0; u < n; ++u) {
    if (u == masked_vertex) continue;
    std::uint64_t missing = batch_mask & ~visited[u];
    while (missing != 0) {
      const int b = std::countr_zero(missing);
      missing &= missing - 1;
      rows[static_cast<std::size_t>(b) * stride + u] = inf_value;
    }
  }
  return true;
}

/// Dispatch: word-parallelism pays once the batch is wide and frontiers are
/// fat. On near-forests (m close to n) distances spread out, vertices
/// re-enter the frontier once per distinct source distance, and per-source
/// queue BFS wins; likewise for tiny batches. Cutoffs measured on random
/// G(n, m) — see DESIGN.md.
template <typename Dist>
[[nodiscard]] bool batch_dispatch(const CsrGraph& g, std::span<const Vertex> sources,
                                  MaskedEdge mask, Dist* rows, std::size_t stride,
                                  BatchBfsWorkspace& ws, Vertex masked_vertex, Dist inf_value,
                                  Dist max_finite) {
  const std::size_t n = g.num_vertices();
  const bool sparse = g.num_edges() < n + n / 4;
  if (sources.size() < 8 || sparse) {
    BfsResult scratch_result;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (!queue_bfs(g, sources[i], mask, rows + i * stride, BatchBfsAccess::queue(ws),
                     masked_vertex, inf_value, max_finite, scratch_result)) {
        return false;
      }
    }
    return true;
  }
  return bitparallel_batch(g, sources, mask, rows, stride, ws, masked_vertex, inf_value,
                           max_finite);
}

template <typename Dist>
[[nodiscard]] bool apsp_impl(const CsrGraph& g, MaskedEdge mask, Dist* rows,
                             BatchBfsWorkspace& ws, Vertex masked_vertex, Dist inf_value,
                             Dist max_finite) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> sources;
  sources.reserve(64);
  for (Vertex base = 0; base < n; base += 64) {
    const Vertex count = std::min<Vertex>(64, n - base);
    sources.resize(count);
    for (Vertex i = 0; i < count; ++i) sources[i] = base + i;
    if (!batch_dispatch<Dist>(g, sources, mask, rows + static_cast<std::size_t>(base) * n, n, ws,
                              masked_vertex, inf_value, max_finite)) {
      return false;
    }
  }
  return true;
}

template <typename Dist>
[[nodiscard]] bool apsp_rows_impl(const CsrGraph& g, std::span<const Vertex> sources,
                                  MaskedEdge mask, Dist* matrix, std::size_t stride,
                                  BatchBfsWorkspace& ws, Vertex masked_vertex, Dist inf_value,
                                  Dist max_finite) {
  const Vertex n = g.num_vertices();
  auto& staging = BatchBfsAccess::staging<Dist>(ws);
  staging.resize(std::size_t{64} * n);
  for (std::size_t base = 0; base < sources.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, sources.size() - base);
    const std::span<const Vertex> group = sources.subspan(base, count);
    if (!batch_dispatch(g, group, mask, staging.data(), n, ws, masked_vertex, inf_value,
                        max_finite)) {
      return false;
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::memcpy(matrix + static_cast<std::size_t>(group[i]) * stride, staging.data() + i * n,
                  static_cast<std::size_t>(n) * sizeof(Dist));
    }
  }
  return true;
}

}  // namespace

BfsResult csr_bfs(const CsrGraph& g, Vertex src, MaskedEdge mask, std::uint16_t* dist,
                  BatchBfsWorkspace& ws, Vertex masked_vertex) {
  BNCG_REQUIRE(src < g.num_vertices(), "vertex id out of range");
  BNCG_REQUIRE(g.num_vertices() < kInfDist16, "16-bit traversal requires n < 65535");
  BfsResult result;
  // Distances < n < 0xFFFF never saturate the full 16-bit range.
  (void)queue_bfs(g, src, mask, dist, BatchBfsAccess::queue(ws), masked_vertex, kInfDist16,
                  static_cast<std::uint16_t>(kInfDist16 - 1), result);
  return result;
}

void bfs_batch(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
               std::uint16_t* rows, std::size_t stride, BatchBfsWorkspace& ws,
               Vertex masked_vertex) {
  BNCG_REQUIRE(sources.size() <= 64, "at most 64 sources per batch");
  BNCG_REQUIRE(g.num_vertices() < kInfDist16, "16-bit traversal requires n < 65535");
  (void)batch_dispatch(g, sources, mask, rows, stride, ws, masked_vertex, kInfDist16,
                       static_cast<std::uint16_t>(kInfDist16 - 1));
}

template <typename Dist>
bool bfs_batch_capped(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
                      Dist* rows, std::size_t stride, BatchBfsWorkspace& ws, Vertex masked_vertex,
                      Dist inf_value, Dist max_finite) {
  BNCG_REQUIRE(sources.size() <= 64, "at most 64 sources per batch");
  BNCG_REQUIRE(max_finite < inf_value, "max_finite must stay below inf_value");
  return batch_dispatch(g, sources, mask, rows, stride, ws, masked_vertex, inf_value, max_finite);
}

template bool bfs_batch_capped<std::uint8_t>(const CsrGraph&, std::span<const Vertex>, MaskedEdge,
                                             std::uint8_t*, std::size_t, BatchBfsWorkspace&,
                                             Vertex, std::uint8_t, std::uint8_t);
template bool bfs_batch_capped<std::uint16_t>(const CsrGraph&, std::span<const Vertex>,
                                              MaskedEdge, std::uint16_t*, std::size_t,
                                              BatchBfsWorkspace&, Vertex, std::uint16_t,
                                              std::uint16_t);

std::uint64_t bfs_batch_reach(const CsrGraph& g, std::span<const Vertex> sources,
                              Vertex masked_vertex, std::int32_t cap, Vertex max_finite,
                              std::uint64_t* reach, BatchBfsWorkspace& ws) {
  BNCG_REQUIRE(sources.size() <= 64, "at most 64 sources per batch");
  const Vertex n = g.num_vertices();
  const auto& visited = BatchBfsAccess::visited(ws);
  bool captured = cap < 0;
  if (captured) std::fill(reach, reach + n, std::uint64_t{0});
  // Bits settling at level max_finite + 1 are exactly the saturating
  // sources (BFS levels are contiguous, so every later settle of a source
  // implies one at that level) — the traversal stops there.
  std::uint64_t saturated = 0;
  bitparallel_levels(g, sources, MaskedEdge{}, ws, masked_vertex,
                     [&](const SettledLevel& settled) {
                       if (settled.level > max_finite) saturated = settled.bits;
                       if (!captured && std::int64_t{settled.level} == cap) {
                         std::memcpy(reach, visited.data(), std::size_t{n} * sizeof(std::uint64_t));
                         captured = true;
                       }
                       return settled.level <= max_finite;
                     });
  if (!captured) std::memcpy(reach, visited.data(), std::size_t{n} * sizeof(std::uint64_t));
  if (masked_vertex < n) reach[masked_vertex] = 0;  // pre-saturated, never reached
  return saturated;
}

void csr_apsp(const CsrGraph& g, MaskedEdge mask, std::uint16_t* rows, BatchBfsWorkspace& ws,
              Vertex masked_vertex) {
  BNCG_REQUIRE(g.num_vertices() < kInfDist16, "16-bit APSP requires n < 65535");
  (void)apsp_impl(g, mask, rows, ws, masked_vertex, kInfDist16,
                  static_cast<std::uint16_t>(kInfDist16 - 1));
}

void csr_apsp_rows(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
                   std::uint16_t* matrix, std::size_t stride, BatchBfsWorkspace& ws,
                   Vertex masked_vertex, std::uint16_t inf_value) {
  const Vertex n = g.num_vertices();
  BNCG_REQUIRE(n < kInfDist16, "16-bit traversal requires n < 65535");
  BNCG_REQUIRE(inf_value >= n, "inf_value must dominate every finite distance");
  // Finite distances are ≤ n − 1 < inf_value, so saturation is impossible:
  // the capped kernel is exactly this function with an unreachable cap.
  (void)csr_apsp_rows_capped<std::uint16_t>(g, sources, mask, matrix, stride, ws, masked_vertex,
                                            inf_value, static_cast<std::uint16_t>(inf_value - 1));
}

template <typename Dist>
bool csr_apsp_capped(const CsrGraph& g, MaskedEdge mask, Dist* rows, BatchBfsWorkspace& ws,
                     Vertex masked_vertex, Dist inf_value, Dist max_finite) {
  BNCG_REQUIRE(max_finite < inf_value, "max_finite must stay below inf_value");
  return apsp_impl(g, mask, rows, ws, masked_vertex, inf_value, max_finite);
}

template <typename Dist>
bool csr_apsp_rows_capped(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
                          Dist* matrix, std::size_t stride, BatchBfsWorkspace& ws,
                          Vertex masked_vertex, Dist inf_value, Dist max_finite) {
  BNCG_REQUIRE(max_finite < inf_value, "max_finite must stay below inf_value");
  return apsp_rows_impl(g, sources, mask, matrix, stride, ws, masked_vertex, inf_value,
                        max_finite);
}

template bool csr_apsp_capped<std::uint8_t>(const CsrGraph&, MaskedEdge, std::uint8_t*,
                                            BatchBfsWorkspace&, Vertex, std::uint8_t,
                                            std::uint8_t);
template bool csr_apsp_capped<std::uint16_t>(const CsrGraph&, MaskedEdge, std::uint16_t*,
                                             BatchBfsWorkspace&, Vertex, std::uint16_t,
                                             std::uint16_t);
template bool csr_apsp_rows_capped<std::uint8_t>(const CsrGraph&, std::span<const Vertex>,
                                                 MaskedEdge, std::uint8_t*, std::size_t,
                                                 BatchBfsWorkspace&, Vertex, std::uint8_t,
                                                 std::uint8_t);
template bool csr_apsp_rows_capped<std::uint16_t>(const CsrGraph&, std::span<const Vertex>,
                                                  MaskedEdge, std::uint16_t*, std::size_t,
                                                  BatchBfsWorkspace&, Vertex, std::uint16_t,
                                                  std::uint16_t);

bool csr_apsp_wide(const CsrGraph& g, Vertex* rows) {
  const Vertex n = g.num_vertices();
  if (n == 0) return true;
  const std::size_t stride = n;
  const Vertex num_batches = (n + 63) / 64;
  constexpr Vertex kMaxFiniteWide = kInfDist - 1;  // distances < n: never saturates

  // One 64-source batch per pool task, one workspace per lane (batches write
  // disjoint row blocks, so lanes never touch the same output bytes).
  ThreadPool& pool = ThreadPool::global();
  std::vector<BatchBfsWorkspace> ws(pool.size());
  pool.parallel_for(num_batches, /*grain=*/1, [&](std::uint64_t b, unsigned tid) {
    const Vertex base = static_cast<Vertex>(b) * 64;
    const Vertex count = std::min<Vertex>(64, n - base);
    std::vector<Vertex> sources(count);
    for (Vertex i = 0; i < count; ++i) sources[i] = base + i;
    (void)batch_dispatch<Vertex>(g, sources, MaskedEdge{},
                                 rows + static_cast<std::size_t>(base) * stride, stride, ws[tid],
                                 kNoVertex, kInfDist, kMaxFiniteWide);
  });

  const std::size_t total = static_cast<std::size_t>(n) * n;
  for (std::size_t i = 0; i < total; ++i) {
    if (rows[i] == kInfDist) return false;
  }
  return true;
}

}  // namespace bncg
