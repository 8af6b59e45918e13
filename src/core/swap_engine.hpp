// Delta-evaluation swap engine — the hot path of the whole system.
//
// Certifying a swap equilibrium means evaluating every candidate swap
// (v, w → w₂) of every agent; the naive path pays one full BFS per
// candidate, i.e. Θ(deg(v)·n) traversals per agent. The engine replaces
// that with per-*removed-edge* work plus a linear algebraic combine per
// candidate, built on three ideas (proofs and measurements in DESIGN.md):
//
//  1. CSR snapshots. The adjacency is frozen into a CsrGraph once per
//     *accepted* move (rebuild()); tentative moves never mutate anything.
//  2. Source-removal identity. Every move of agent v only edits edges
//     incident to v, and every post-move path from v starts with one of
//     them, so for any new neighborhood N' of v:
//       d'(v,u) = 1 + min_{z ∈ N'} d_{G−v}(z, u)        (u ≠ v).
//     The distances of the *vertex-masked* snapshot G−v therefore answer
//     every (removed edge w, candidate w₂) pair of the agent. With
//     c_z = d_{G−v}(z,·) and M^w_u = min_{z ∈ N(v)∖{w}} c_{z,u} (built in
//     O(n) per w from elementwise min/argmin/second-min over the neighbor
//     rows):
//       sum model: cost'(v) = (n−1) + Σ_u min(M^w_u, c_{w₂,u}),
//       max model: cost'(v) = 1 + max_u min(M^w_u, c_{w₂,u}),
//     an O(n) vectorizable combine per candidate — no per-candidate BFS,
//     and no per-removed-edge traversal either. Deleting vw falls out for
//     free: its post-move profile is 1 + M^w. The masked distances come by
//     repair, not recompute (graph/masked_repair.hpp, DESIGN.md §17): one
//     unmasked APSP per snapshot, shared read-only by every lane, plus
//     sparse per-agent patches of the entries masking v lengthens, repaired
//     row by row on demand. The neighbor rows are folded unmasked and
//     only the fold's hard entries re-settled (DESIGN.md §3); candidate
//     rows are read straight from the shared slab, and since
//     masking only lengthens entries the unmasked combine (sum) or far test
//     (max) bounds the masked one — only candidates that bound cannot rule
//     out repair their row and correct their combine by its patches.
//  3. Far-set filtering (max model). cost'(v) < ecc(v) requires
//     c_{w₂,u} ≤ ecc(v) − 2 on the far set {u : M^w_u > ecc(v) − 2}, which
//     is typically tiny. The dense scan tests it far vertex by far vertex:
//     the slab is symmetric, so far row u is the column d(·, u), and one
//     SIMD compare-to-bitmask per far row (simd keep_within) strikes every
//     candidate that misses u, stopping once none is left (budgeted scans,
//     which hold no slab: one bit-parallel reach word per candidate). The
//     exact combine runs only for the survivors.
//
// The scan kernels are templated on the distance storage width
// (graph/dist_width.hpp): on small-diameter instances the shared slab and
// all combine rows shrink to u8 (capped infinity kSearchInf8), halving the
// combine's memory traffic — DESIGN.md §10. Width is a pure storage choice:
// any agent that computes or reads a value the narrow cap cannot represent
// is transparently redone at u16 (width_fallbacks()), so results never
// depend on the width.
//
// Scans enumerate candidates in exactly the naive order and apply exactly
// the naive acceptance rules, so engine results are bit-identical to the
// brute-force oracle (differential-tested on hundreds of random instances —
// across widths too, see tests/test_width_fuzz.cpp; the oracle is
// bncg::naive, called by name).
//
// The engine answers one agent at a time and owns no agent loop: whole-graph
// certification is certify_sharded (core/certify_sharded.hpp), the one
// in-process driver, and certify_agent_range runs one shard of it on an
// engine the caller holds (worker processes, the service).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/dist_provider.hpp"
#include "core/equilibrium.hpp"
#include "core/kstability.hpp"
#include "core/usage_cost.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"
#include "graph/dist_width.hpp"
#include "graph/graph.hpp"
#include "graph/masked_repair.hpp"
#include "graph/row_cache.hpp"
#include "util/simd.hpp"

namespace bncg {

/// One α-game usage evaluation from SwapEngine::alpha_scan, emitted in
/// exactly the order ClassicGame's naive scan enumerates moves (adds by
/// ascending endpoint, then per owned neighbor: the deletion, then swaps by
/// ascending target). `usage` is the post-move Σ_u d'(v,u) — kInfCost when
/// the move disconnects v. The α-dependent cost and gain arithmetic stays in
/// ClassicGame so both paths share one double-precision pipeline and the
/// engine remains pure integer.
struct AlphaCandidate {
  enum class Kind : std::uint8_t { Add, Delete, Swap };
  Kind kind = Kind::Add;
  Vertex w = 0;   ///< added endpoint (Add) or removed neighbor (Delete/Swap)
  Vertex w2 = 0;  ///< swap target (Swap only)
  std::uint64_t usage = 0;
};

/// Delta-evaluating swap scanner over an immutable CSR snapshot.
class SwapEngine {
 public:
  /// Per-thread scratch: the masked-row repair patches of the scanned agent,
  /// O(n) scan tables in the width the scan runs at, the batched BFS
  /// workspace, and small per-agent marks — O(n + patched entries) per
  /// dense agent scan; the n×n rows live once, in the engine's shared slab.
  /// Allocated once, reused for every scan; one instance per thread.
  class Scratch {
   public:
    friend class SwapEngine;

    /// Combined row-cache counters of both widths (all-zero while every
    /// scan ran dense).
    [[nodiscard]] RowCacheStats row_cache_stats() const;
    /// Far-set reach traversals (bfs_batch_reach calls) run by budgeted
    /// max-model scans of this scratch.
    [[nodiscard]] std::uint64_t reach_traversals() const noexcept { return reach_traversals_; }
    /// The repair state of one width — which rows the last agent at that
    /// width repaired, for benches and the prune-soundness suite; patches
    /// are readable only through a scan.
    [[nodiscard]] const MaskedRowRepair<std::uint8_t>& repair8() const noexcept {
      return rows8_.repair;
    }
    [[nodiscard]] const MaskedRowRepair<std::uint16_t>& repair16() const noexcept {
      return rows16_.repair;
    }

   private:
    /// Width-typed row buffers of one scan. 64-byte-aligned storage: these
    /// are exactly the arrays the SIMD scan kernels stream over.
    template <typename Dist>
    struct Rows {
      AlignedVec<Dist> min1;  // elementwise min over neighbor rows
      AlignedVec<Dist> min2;  // elementwise second min
      AlignedVec<Dist> mrow;  // M^w: min over N(v)∖{w} / k-way fold target
      AlignedVec<Dist> arow;  // one materialized masked row / add-profile
      MaskedRowRepair<Dist> repair;  // patches of G − v over the unmasked rows
      RowCache<Dist> cache;          // budgeted scans' unmasked rows
    };
    template <typename Dist>
    [[nodiscard]] Rows<Dist>& rows() noexcept {
      if constexpr (std::is_same_v<Dist, std::uint8_t>) {
        return rows8_;
      } else {
        return rows16_;
      }
    }

    BatchBfsWorkspace bfs_;
    std::vector<std::uint8_t> is_nbr_;  // closed neighborhood marks of v
    AlignedVec<Vertex> argmin_;         // neighbor attaining min1
    AlignedVec<Vertex> far_;            // far set of the removed edge, or the union
                                        // far set in budgeted max scans (n slots)
    std::vector<std::uint8_t> far_mark_;  // membership marks of far_
    AlignedVec<Vertex> hits_;           // collect_below output (cover masks)
    std::vector<std::uint64_t> masks_;  // flat per-candidate coverage bitsets (cover
                                        // masks; budgeted max: far-set reach words)
    std::vector<std::uint64_t> candidates_;  // dense max: the agent's candidates, one
                                             // bit per vertex; budgeted max: per
                                             // vertex, the group edges it survives
    std::vector<std::uint64_t> alive_;  // max: the removed edge's survivors, one bit
                                        // per vertex
    std::vector<AlphaCandidate> alpha_;  // buffered α-scan candidates
    /// Sum scans: the agent's candidates in ascending order, each with its
    /// edge-independent lower bound combine_sum(min1, c) (0 in first-
    /// deviation scans, which read no row up front); best-deviation scans
    /// keep only candidates whose bound is below the agent's cost.
    struct SumCandidate {
      Vertex w2;
      std::uint64_t lb;
    };
    std::vector<SumCandidate> sum_candidates_;
    std::uint64_t reach_traversals_ = 0;
    Rows<std::uint8_t> rows8_;
    Rows<std::uint16_t> rows16_;
  };

  /// Snapshots `g` (core/dist_provider.hpp): scan widths follow
  /// resources.width, a preference only (graph/dist_width.hpp), and any
  /// width whose n×n slab would exceed the per-lane share of
  /// resources.mem_budget runs BUDGETED — distance rows materialize on
  /// demand in the blocked row cache, and no shared slab is ever built at
  /// that width. Without a budget, scans read the shared unmasked slab
  /// whenever n < 65535; larger instances run budgeted. Both modes are
  /// exact; width and budget change memory, never results.
  explicit SwapEngine(const Graph& g, const ResourceConfig& resources = {}) {
    rebuild(g, resources);
  }

  /// Re-snapshots after an accepted move (storage reused, width preference
  /// re-probed under the current policy).
  void rebuild(const Graph& g);

  /// Re-snapshots and changes the resource configuration.
  void rebuild(const Graph& g, const ResourceConfig& resources);

  [[nodiscard]] const ResourceConfig& resources() const noexcept { return resources_; }
  /// The resolved width/storage decisions scans run under.
  [[nodiscard]] const WidthAndBudgetPolicy& budget_policy() const noexcept {
    return budget_policy_;
  }

  [[nodiscard]] const CsrGraph& snapshot() const noexcept { return csr_; }

  /// Width scans start in: U8 when the policy and the probed diameter bound
  /// allow it, else U16.
  [[nodiscard]] DistWidth preferred_width() const noexcept {
    return prefer_u8_ ? DistWidth::U8 : DistWidth::U16;
  }

  /// Number of queries (since the last rebuild) that ran at u16 on a
  /// u8-preferring engine: every query while the u8 slab saturates, and
  /// otherwise each query that computed or read a finite value above the u8
  /// cap — a fold entry, a repaired row, or a budgeted reach or row fill
  /// (DESIGN.md §17).
  [[nodiscard]] std::uint64_t width_fallbacks() const noexcept {
    return width_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Usage cost of agent `v` on the snapshot (kInfCost when disconnected),
  /// read off row v of the shared unmasked slab. Dense path (n < 65535).
  [[nodiscard]] std::uint64_t agent_cost(Vertex v, UsageCost model) const;

  /// Best improving deviation of agent `v` (max model scans swaps only;
  /// pass include_deletions for the deletion clause). Identical results and
  /// move counts to the naive per-candidate-BFS scan.
  [[nodiscard]] std::optional<Deviation> best_deviation(
      Vertex v, UsageCost model, Scratch& scratch, bool include_deletions = false,
      std::uint64_t* moves_checked = nullptr) const;

  /// First improving deviation of agent `v` in scan order.
  [[nodiscard]] std::optional<Deviation> first_deviation(
      Vertex v, UsageCost model, Scratch& scratch, bool include_deletions = false,
      std::uint64_t* moves_checked = nullptr) const;

  /// Builds the shared unmasked slab the preferred-width scans read, on the
  /// pool, now. Scans build it on first need anyway, but a first need inside
  /// a pool task builds it inline on that lane while the others wait — so
  /// parallel callers call this before their parallel region. No-op when
  /// the width runs budgeted or the slab already exists.
  void build_shared_rows() const;

  /// Agent v's neighbor fold at width `Dist` — the first step of its scans,
  /// dense or budgeted as they run: min1, min2 and argmin over the rows of
  /// G − v, column v pinned, valid until the scratch's next agent. nullopt,
  /// with no fallback taken or counted, when it saturates the width. For
  /// the fold parity suite and bench_engine_json.
  template <typename Dist>
  struct Fold {
    std::span<const Dist> min1, min2;
    std::span<const Vertex> argmin;
  };
  template <typename Dist>
  [[nodiscard]] std::optional<Fold<Dist>> fold_agent(Vertex v, Scratch& scratch) const;

  /// Convenience overloads owning a scratch (single-threaded callers).
  [[nodiscard]] std::optional<Deviation> best_deviation(Vertex v, UsageCost model,
                                                        bool include_deletions = false);
  [[nodiscard]] std::optional<Deviation> first_deviation(Vertex v, UsageCost model,
                                                         bool include_deletions = false);

  // ------------------------------------------------ k-move deviation paths
  //
  // The k-insertion identity d'(v,x) = min(d(v,x), 1 + min_i d(w_i,x)) makes
  // the "does some ≤ k-insertion lower ecc(v)" question a set-cover instance
  // whose candidate masks the engine scores directly from the shared
  // unmasked slab (collect_below over its symmetric rows — DESIGN.md §14).
  // The k-swap variant reads G − v instead, since (G − D) − v = G − v for
  // every deletion subset D at v: kept-neighbor rows fold with the k-way
  // min-fold kernel and the cover masks come from far rows, all repaired
  // over the same slab (DESIGN.md §17). All results — verdicts AND
  // witnesses — are byte-identical to the bncg::naive oracles in
  // core/kstability.

  /// Engine form of naive::insertion_stability_at (one agent, budget k).
  [[nodiscard]] KStabilityReport insertion_stability_at(Vertex v, Vertex k, Scratch& scratch) const;

  /// Engine form of naive::insertion_stability: the shared unmasked slab,
  /// per-agent cover instances in parallel, serial fold (+ a monotone
  /// first-unstable cutoff) so the witness is the earliest unstable agent at
  /// every thread count — exactly the naive sequential sweep's answer.
  [[nodiscard]] KStabilityReport insertion_stability(Vertex k) const;

  /// Engine form of naive::max_tolerated_insertions: the cover instance is
  /// budget-independent, so it is built once and re-solved per k.
  [[nodiscard]] Vertex max_tolerated_insertions(Vertex v, Vertex k_max, Scratch& scratch) const;

  /// Engine form of naive::swap_stability_at. Requires deg(v) < 32 (the
  /// subset enumeration is a 32-bit mask, as in the oracle).
  [[nodiscard]] KStabilityReport swap_stability_at(Vertex v, Vertex k, Scratch& scratch) const;

  /// α-game usage sweep for agent v: every add/delete/swap usage, in the
  /// naive ClassicGame enumeration order, as combines over the shared slab
  /// corrected by the repaired rows of G − v. `owned[w]` must say whether
  /// edge v–w is bought by v (deletes/swaps enumerate owned neighbors
  /// only). The returned reference aliases `scratch`.
  [[nodiscard]] const std::vector<AlphaCandidate>& alpha_scan(
      Vertex v, const std::vector<std::uint8_t>& owned, Scratch& scratch) const;

 private:
  std::optional<Deviation> scan_agent(Vertex v, UsageCost model, bool stop_at_first,
                                      bool include_deletions, std::uint64_t* moves_checked,
                                      Scratch& scratch) const;

  /// The one width ladder of the engine's queries. Runs `scan(slab)` over
  /// the u8 slab when u8 is preferred and that slab fits, and over the u16
  /// slab when it does not, or when the u8 scan returns false (a value it
  /// computes or reads beyond the u8 cap) — either counts a width fallback.
  /// With `budgeted`, a width whose slab exceeds the lane budget passes a
  /// null slab and `scan` runs budgeted. `scan` takes `const std::uint8_t*`
  /// or `const std::uint16_t*` and returns false only on saturation.
  template <typename Scan>
  void at_width(bool budgeted, Scan&& scan) const;

  /// Unmasked row x at width `Dist`: row x of the shared slab `slab`, or,
  /// when `slab` is null (budgeted), the row of the scratch's row cache,
  /// valid until the next row read. nullptr when a cache fill saturates
  /// the width.
  template <typename Dist>
  [[nodiscard]] const Dist* unmasked_row(const Dist* slab, Vertex x, Scratch& scratch) const;

  /// Starts the masked rows of agent v at width `Dist`: closed-neighborhood
  /// marks, the repair of G − v begun (and, budgeted, a row-cache context),
  /// and min1/min2/argmin over the rows of G − v, folded from the unmasked
  /// neighbor rows without repairing one (DESIGN.md §3). False when a fold
  /// entry or, budgeted, a row fill saturates the width.
  template <typename Dist>
  [[nodiscard]] bool begin_agent_t(const Dist* slab, Vertex v, Scratch& scratch) const;

  /// Width-typed scan body of both storage modes: the unmasked rows come
  /// from the shared slab `slab`, or from the row cache under the per-lane
  /// budget when `slab` is null, and the agent's masked rows are repaired
  /// from them as the scan reads them (DESIGN.md §17). Only the max far
  /// test differs: keep_within over slab rows when dense, reach_filter_t
  /// when budgeted. Returns false — with `out` and the move count untouched
  /// by the caller — when a fold entry or a row it reads saturates the
  /// width (budgeted: also a row fill or far vertex); at_width then redoes
  /// the agent at u16.
  template <typename Dist>
  [[nodiscard]] bool scan_agent_t(Vertex v, UsageCost model, bool stop_at_first,
                                  bool include_deletions, std::uint64_t* moves_checked,
                                  const Dist* slab, Scratch& scratch,
                                  std::optional<Deviation>& out) const;

  /// Candidates x ≤ last of the agent whose closed neighborhood
  /// scratch.is_nbr_ marks. The max scans count every candidate of a removed
  /// edge up front (last = n − 1); stop-at-first at candidate w₂ takes back
  /// the candidates after w₂, which the naive enumeration never reaches.
  [[nodiscard]] static std::uint64_t candidates_through(const Scratch& scratch, Vertex last);

  /// Far filter of the budgeted max scan for the removed edges
  /// nbrs[first, first + count), count ≤ 64, over the scan tables in
  /// `scratch`: sets bit e − first of scratch.candidates_[x] iff candidate x
  /// reaches every vertex of edge e's far set within `cap` in G − v. Runs
  /// one bfs_batch_reach per ≤ 64 vertices of the group's union far set.
  /// Returns the group's edges whose far set holds a vertex whose masked
  /// row saturates the width (DESIGN.md §16).
  template <typename Dist>
  [[nodiscard]] std::uint64_t reach_filter_t(Vertex v, std::size_t first, std::size_t count,
                                             std::int32_t cap, Scratch& scratch) const;

  /// The snapshot's unmasked capped APSP at width `Dist`, built on first
  /// need (on the pool) and shared read-only by every lane and every dense
  /// query; nullptr when some distance saturates the width. Dense paths
  /// only (n < 65535).
  template <typename Dist>
  [[nodiscard]] const Dist* shared_rows() const;

  /// Far set + dedup'd coverage sets of agent v over the symmetric rows of
  /// the unmasked slab `apsp`, then cover_select at each budget in
  /// [k_lo, k_hi]; fills `out` with the verdict at the first coverable
  /// budget (stable otherwise) and, when `tolerated` is non-null, the
  /// max_tolerated_insertions answer.
  template <typename Dist>
  void insertion_report_t(const Dist* apsp, Vertex v, Vertex k_lo, Vertex k_hi, Scratch& scratch,
                          KStabilityReport& out, Vertex* tolerated) const;

  template <typename Dist>
  [[nodiscard]] KStabilityReport insertion_sweep_t(const Dist* apsp, Vertex k) const;

  /// swap_stability_at's deletion-subset enumeration over the rows of
  /// G − v repaired from `slab`; false when they saturate the width.
  template <typename Dist>
  [[nodiscard]] bool swap_stability_t(const Dist* slab, Vertex v, Vertex k, std::uint64_t old_ecc,
                                      Scratch& scratch, KStabilityReport& out) const;

  /// alpha_scan's usages from `slab` and the repaired rows of G − v into
  /// scratch.alpha_; false when they saturate the width.
  template <typename Dist>
  [[nodiscard]] bool alpha_scan_t(const Dist* slab, Vertex v,
                                  const std::vector<std::uint8_t>& owned, Scratch& scratch) const;

  /// One width's shared slab: built at most once per snapshot under
  /// `mutex`, published through `state` (acquire/release), then read-only.
  template <typename Dist>
  struct SharedRows {
    enum : std::uint8_t { kUnbuilt, kReady, kSaturated };
    AlignedVec<Dist> rows;
    std::atomic<std::uint8_t> state{kUnbuilt};
    std::mutex mutex;

    void reset() {
      rows.clear();
      state.store(kUnbuilt, std::memory_order_relaxed);
    }
  };
  template <typename Dist>
  [[nodiscard]] SharedRows<Dist>& shared() const noexcept {
    if constexpr (std::is_same_v<Dist, std::uint8_t>) {
      return shared8_;
    } else {
      return shared16_;
    }
  }

  CsrGraph csr_;
  ResourceConfig resources_;
  WidthAndBudgetPolicy budget_policy_;
  bool prefer_u8_ = false;
  /// Shared by every lane scanning this engine (certify_sharded's shards);
  /// relaxed is enough for a monotone counter.
  mutable std::atomic<std::uint64_t> width_fallbacks_{0};
  mutable SharedRows<std::uint8_t> shared8_;
  mutable SharedRows<std::uint16_t> shared16_;
  Scratch scratch_;  // for the convenience overloads
};

}  // namespace bncg
