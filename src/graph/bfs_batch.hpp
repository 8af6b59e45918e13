// Batched bit-parallel BFS over CSR snapshots.
//
// The certifiers need *all* distance rows of G − vw for every edge vw the
// swapping agent might abandon — that is an APSP per tentative removal. A
// queue BFS per source wastes the fact that the 64-bit datapath can carry
// one frontier bit per source: `bfs_batch` runs up to 64 sources at once,
// level-synchronously, propagating a 64-bit "which sources have reached this
// vertex" word along each edge with a single OR. Per level the work is one
// word-OR per touched edge, so a full APSP costs ⌈n/64⌉ sweeps of O(m·levels)
// word operations instead of n pointer-chasing traversals.
//
// On very sparse graphs (forests and near-forests) frontiers are thin and
// distances spread out, so each vertex re-enters the frontier many times and
// the word-parallelism stops paying; `bfs_batch` then falls back to one
// cache-friendly queue BFS per source (`csr_bfs`). The cutoffs were measured
// on random G(n, m); see DESIGN.md §"Cost model".
//
// Distances are written as 16-bit values (kInfDist16 = unreachable), which
// halves APSP bandwidth; graphs must therefore have n < 65535. The wide
// (32-bit) entry point `csr_apsp_wide` backs DistanceMatrix without that
// restriction on its output type.
//
// Every kernel is one template family over the distance storage type; the
// width-adaptive entry points (`csr_apsp_capped`, `bfs_batch_capped`)
// expose the u8/u16 instantiations with an explicit capped infinity and
// *saturation detection*: a traversal that would have to write a finite
// distance above `max_finite` reports failure instead of writing a wrapped
// or aliased value, which is what lets core/swap_engine fall back per agent
// (graph/dist_width.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.hpp"  // BfsResult, kInfDist
#include "graph/csr.hpp"
#include "graph/dist_width.hpp"

namespace bncg {

/// 16-bit distance sentinel for unreachable vertices.
inline constexpr std::uint16_t kInfDist16 = 0xFFFF;

/// Scratch buffers for batched traversals; reuse across calls (one per
/// thread — not thread-safe).
class BatchBfsWorkspace {
 public:
  friend struct BatchBfsAccess;

 private:
  std::vector<std::uint64_t> cur_;      // frontier bits per vertex
  std::vector<std::uint64_t> next_;     // next-level bits per vertex
  std::vector<std::uint64_t> visited_;  // settled bits per vertex
  std::vector<Vertex> queue_;           // queue-BFS fallback
  std::vector<Vertex> frontier_;        // thin-level push lists (bitparallel)
  std::vector<Vertex> touched_;
  std::vector<Vertex> spare_;
  std::vector<std::uint32_t> stamp_;    // first-touch level stamps (push mode)
};

/// Single-source queue BFS over the snapshot, skipping `mask` if active and
/// the vertex `masked_vertex` (all its incident edges) if given. Writes
/// exact 16-bit distances into dist[0..n) and returns the aggregates
/// (dist_sum / ecc / reached) of the traversal. O(n + m). When src is the
/// masked vertex the row is all-∞ (the vertex is simply absent).
BfsResult csr_bfs(const CsrGraph& g, Vertex src, MaskedEdge mask, std::uint16_t* dist,
                  BatchBfsWorkspace& ws, Vertex masked_vertex = kNoVertex);

/// Multi-source BFS from ≤64 distinct sources, skipping `mask` if active
/// and `masked_vertex` if given. Row i receives the distances from
/// sources[i]: rows[i·stride + x] = d(sources[i], x), kInfDist16 when
/// unreachable. Chooses bit-parallel or per-source queue traversal based on
/// batch size and graph density.
void bfs_batch(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
               std::uint16_t* rows, std::size_t stride, BatchBfsWorkspace& ws,
               Vertex masked_vertex = kNoVertex);

/// Width-adaptive positional batch: like `bfs_batch`, but row *i* (the
/// position within `sources`, NOT the source id) receives the distances,
/// stored as `Dist` with the same saturation contract as
/// `csr_apsp_capped` — false (row contents unspecified) the moment a
/// finite distance would exceed `max_finite`. This is the miss-fill
/// primitive of graph/row_cache.hpp, whose cache slots hold rows of
/// arbitrary sources, so the id-indexed entry points cannot serve it.
/// Deliberately NOT restricted to n < 65535: saturation detection is the
/// bound — levels are tracked in Vertex width, so a distance the encoding
/// cannot represent reports failure instead of wrapping, which is what lets
/// the budgeted row cache run u16 scans on million-node instances whose
/// masked diameters stay under the cap. ≤ 64 sources per call.
template <typename Dist>
[[nodiscard]] bool bfs_batch_capped(const CsrGraph& g, std::span<const Vertex> sources,
                                    MaskedEdge mask, Dist* rows, std::size_t stride,
                                    BatchBfsWorkspace& ws, Vertex masked_vertex, Dist inf_value,
                                    Dist max_finite);

/// Bit-parallel reach: the ≤ 64-source traversal of `bfs_batch` without
/// distance rows. On return reach[u] (n words) has bit i set iff
/// d(sources[i], u) ≤ cap in the snapshot with `masked_vertex` removed
/// (cap < 0 reaches nothing; the masked vertex is never reached). Returns
/// the bits of the sources whose traversal settles a vertex above
/// `max_finite` — exactly the sources on which `bfs_batch_capped` at that
/// bound reports saturation. Reach bits of a saturating source are exact
/// up to level max_finite + 1, where the traversal stops. This is the far
/// filter of the budgeted max scan (DESIGN.md §16): one traversal answers
/// "which vertices reach these ≤ 64 far vertices within cap" for every
/// candidate at once, where rows would cost 64 single-source fills.
[[nodiscard]] std::uint64_t bfs_batch_reach(const CsrGraph& g, std::span<const Vertex> sources,
                                            Vertex masked_vertex, std::int32_t cap,
                                            Vertex max_finite, std::uint64_t* reach,
                                            BatchBfsWorkspace& ws);

/// All-pairs shortest paths of the (masked) snapshot into an n×n row-major
/// 16-bit matrix: rows[v·n + x] = d(v, x). Serial; callers parallelize over
/// higher-level work units (agents, removed edges). Masking a vertex yields
/// the APSP of G − v (the swap engine's per-agent primitive: every
/// post-swap distance of agent v decomposes over d_{G−v}).
void csr_apsp(const CsrGraph& g, MaskedEdge mask, std::uint16_t* rows, BatchBfsWorkspace& ws,
              Vertex masked_vertex = kNoVertex);

/// All-pairs shortest paths into an n×n 32-bit matrix (kInfDist sentinel),
/// OpenMP-parallel over source batches. Returns true iff every pair is
/// reachable. Backs DistanceMatrix.
bool csr_apsp_wide(const CsrGraph& g, Vertex* rows);

/// Width-adaptive all-pairs shortest paths with saturation detection: like
/// `csr_apsp`, but distances are stored as `Dist` with `inf_value` written
/// for unreachable (and masked) entries. Returns false — with unspecified
/// matrix contents — as soon as some *finite* distance exceeds `max_finite`,
/// i.e. the instance does not fit the width's capped-infinity encoding.
/// Preconditions: max_finite < inf_value. Instantiated for u8 and u16.
template <typename Dist>
[[nodiscard]] bool csr_apsp_capped(const CsrGraph& g, MaskedEdge mask, Dist* rows,
                                   BatchBfsWorkspace& ws, Vertex masked_vertex,
                                   Dist inf_value, Dist max_finite);

}  // namespace bncg
