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
//     sparse per-agent patches of the entries masking v lengthens.
//     Candidate rows are read straight from the shared slab and each
//     combine is corrected by that row's patches alone.
//  3. Far-set filtering (max model). cost'(v) < ecc(v) requires
//     c_{w₂,u} ≤ ecc(v) − 2 on the far set {u : M^w_u > ecc(v) − 2}, which
//     is typically tiny — candidates are rejected after |far| comparisons
//     (budgeted scans: one bit-parallel reach word per candidate) and the
//     exact combine runs only for actual improvers.
//
// The scan kernels are templated on the distance storage width
// (graph/dist_width.hpp): on small-diameter instances the shared slab and
// all combine rows shrink to u8 (capped infinity kSearchInf8), halving the
// combine's memory traffic — DESIGN.md §10. Width is a pure storage choice:
// any agent whose masked distances meet a value the narrow cap cannot
// represent is transparently redone at u16 (width_fallbacks()), so results
// never depend on the width.
//
// Scans enumerate candidates in exactly the naive order and apply exactly
// the naive acceptance rules, so engine results are bit-identical to the
// brute-force oracle (differential-tested on hundreds of random instances —
// across widths too, see tests/test_width_fuzz.cpp; set BNCG_FORCE_NAIVE=1
// to route the public certifier API back to the oracle).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
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
#include "util/simd.hpp"

namespace bncg {

/// Largest n for which the public entry points auto-select the engine. The
/// engine holds one shared unmasked n×n slab per scanned width (16 MB at
/// this cap in u8, twice that in u16), so unbounded auto-enablement would
/// trade the naive path's O(n) memory for multi-gigabyte allocations long
/// before the 16-bit encoding limit. Callers that accept the memory bill
/// can always construct a SwapEngine directly (hard limit: n < 65535);
/// core/certify_sharded.hpp is the packaged way to do that for large-n
/// certification.
inline constexpr Vertex kSwapEngineAutoMaxVertices = 4096;

/// True iff BNCG_FORCE_NAIVE is set (read once per process): every
/// accelerated tier — SwapEngine and SearchState alike — must consult this
/// one helper so the env var toggles them together.
[[nodiscard]] bool force_naive_requested();

/// True when the engine should back the public certifier entry points:
/// n within the auto-enable cap and BNCG_FORCE_NAIVE is not set.
[[nodiscard]] bool swap_engine_enabled(const Graph& g);

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

    /// Budgeted-mode row providers of this scratch (dense scans leave them
    /// idle) — residency/stat introspection for benches and the
    /// prune-soundness suite.
    [[nodiscard]] const DistanceProvider<std::uint8_t>& provider8() const noexcept {
      return rows8_.provider;
    }
    [[nodiscard]] const DistanceProvider<std::uint16_t>& provider16() const noexcept {
      return rows16_.provider;
    }
    /// Combined row-cache counters of both widths (all-zero while every
    /// scan ran dense).
    [[nodiscard]] RowCacheStats row_cache_stats() const;
    /// Far-set reach traversals (bfs_batch_reach calls) run by budgeted
    /// max-model scans of this scratch.
    [[nodiscard]] std::uint64_t reach_traversals() const noexcept { return reach_traversals_; }

   private:
    /// Width-typed row buffers of one scan. 64-byte-aligned storage: these
    /// are exactly the arrays the SIMD scan kernels stream over.
    template <typename Dist>
    struct Rows {
      AlignedVec<Dist> apsp;  // all rows of G − v (k-swap and α-game sweeps)
      AlignedVec<Dist> min1;  // elementwise min over neighbor rows
      AlignedVec<Dist> min2;  // elementwise second min
      AlignedVec<Dist> mrow;  // M^w: min over N(v)∖{w}
      AlignedVec<Dist> arow;  // masked neighbor row / add-profile / k-way fold target
      MaskedRowRepair<Dist> repair;     // patches of G − v over the shared slab
      DistanceProvider<Dist> provider;  // budgeted row cache
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
    std::vector<std::uint16_t> base_;   // d_G(v, ·) of the scanned agent
    std::vector<std::uint8_t> is_nbr_;  // closed neighborhood marks of v
    AlignedVec<Vertex> argmin_;         // neighbor attaining min1
    AlignedVec<Vertex> far_;            // far set of the removed edge, or the union
                                        // far set in budgeted scans (n slots)
    std::vector<std::uint8_t> far_mark_;  // membership marks of far_
    AlignedVec<Vertex> hits_;           // collect_below output (cover masks)
    std::vector<std::uint64_t> masks_;  // flat per-candidate coverage bitsets (cover
                                        // masks; budgeted max: far-set reach words)
    std::vector<std::uint64_t> alive_;  // budgeted max: edges of the group each
                                        // candidate still survives, one bit per edge
    std::vector<AlphaCandidate> alpha_;  // buffered α-scan candidates
    std::uint64_t reach_traversals_ = 0;
    Rows<std::uint8_t> rows8_;
    Rows<std::uint16_t> rows16_;
  };

  /// Snapshots `g`. The width policy governs which storage width scans
  /// *prefer* (graph/dist_width.hpp); results are width-independent.
  /// Unlimited-memory construction: scans read the shared unmasked slab
  /// whenever n < 65535; larger instances automatically run budgeted scans.
  explicit SwapEngine(const Graph& g, WidthPolicy width = WidthPolicy::Auto) {
    rebuild(g, width);
  }

  /// Budget-aware construction (core/dist_provider.hpp): scan widths follow
  /// resources.width, and any width whose n×n slab would exceed the
  /// per-lane share of resources.mem_budget runs BUDGETED — distance rows
  /// materialize on demand in the blocked row cache, and no shared slab is
  /// ever built at that width. Both modes are exact; the budget changes
  /// memory, never results.
  SwapEngine(const Graph& g, const ResourceConfig& resources) { rebuild(g, resources); }

  /// Re-snapshots after an accepted move (storage reused, width preference
  /// re-probed under the current policy).
  void rebuild(const Graph& g);

  /// Re-snapshots and changes the width policy.
  void rebuild(const Graph& g, WidthPolicy width);

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

  /// Number of agent scans (since the last rebuild) whose masked distances
  /// (G − v, excluding v's own row and column) held a finite entry above
  /// the u8 cap, so the agent ran at u16.
  [[nodiscard]] std::uint64_t width_fallbacks() const noexcept {
    return width_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Usage cost of agent `v` on the snapshot (kInfCost when disconnected).
  [[nodiscard]] std::uint64_t agent_cost(Vertex v, UsageCost model, Scratch& scratch) const;

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

  /// Exhaustive certificate over all agents (sum: swap stability; max: swap
  /// stability plus the strict-deletion clause when include_deletions).
  /// Parallel over agents on the process thread pool, one Scratch per lane;
  /// per-agent results fold serially so witnesses are thread-count-invariant.
  [[nodiscard]] EquilibriumCertificate certify(UsageCost model, bool include_deletions) const;

  /// Builds the shared unmasked slab the preferred-width scans read, on the
  /// pool, now. Scans build it on first need anyway, but a first need inside
  /// a pool task builds it inline on that lane while the others wait — so
  /// parallel callers call this before their parallel region. No-op when
  /// the width runs budgeted or the slab already exists.
  void build_shared_rows() const;

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
  // unmasked slab (collect_below over its symmetric rows — DESIGN.md §14); the
  // k-swap variant folds kept-neighbor rows of the one masked APSP of G − v
  // with the k-way min-fold kernel, since (G − D) − v = G − v for every
  // deletion subset D at v. All results — verdicts AND witnesses — are
  // byte-identical to the bncg::naive oracles in core/kstability.

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

  /// α-game usage sweep for agent v: every add/delete/swap usage from one
  /// masked APSP, in the naive ClassicGame enumeration order. `owned[w]`
  /// must say whether edge v–w is bought by v (deletes/swaps enumerate owned
  /// neighbors only). The returned reference aliases `scratch`.
  [[nodiscard]] const std::vector<AlphaCandidate>& alpha_scan(
      Vertex v, const std::vector<std::uint8_t>& owned, Scratch& scratch) const;

 private:
  std::optional<Deviation> scan_agent(Vertex v, UsageCost model, bool stop_at_first,
                                      bool include_deletions, std::uint64_t* moves_checked,
                                      Scratch& scratch) const;

  /// Width-typed dense scan body over the shared unmasked slab `slab`,
  /// with the agent's masked rows repaired into scratch (DESIGN.md §17).
  /// Returns false — with `out` and the move count untouched by the caller —
  /// when a repaired distance saturates the width (only possible for u8);
  /// the dispatcher then redoes the agent at u16.
  template <typename Dist>
  [[nodiscard]] bool scan_agent_t(Vertex v, UsageCost model, bool stop_at_first,
                                  bool include_deletions, std::uint64_t* moves_checked,
                                  const Dist* slab, Scratch& scratch,
                                  std::optional<Deviation>& out) const;

  /// Fallback rule for agents scanned at u16 because the u8 slab itself
  /// saturates: true iff G − v, excluding v's row and column, holds a
  /// finite distance above the u8 cap. Reads the u16 repair in `scratch`.
  [[nodiscard]] bool masked_exceeds_u8(Vertex v, const Scratch& scratch) const;

  /// Width-typed BUDGETED scan body: same enumeration order, acceptance
  /// rules, move counts, and results as scan_agent_t, but rows stream
  /// through the DistanceProvider's row cache under the per-lane byte
  /// budget instead of a dense n×n slab — the agent's current cost derives
  /// from the neighbor min-fold (source-removal identity at N' = N(v)), the
  /// max model filters candidates by bit-parallel reach of the far sets
  /// (reach_filter_t) so candidate rows are materialized only for proven
  /// improvers, and the sum model prunes candidates whose
  /// triangle-inequality lower bound (Σ M^w − n·M^w_{w₂}) already meets the
  /// old cost. False on width saturation (u8: dispatcher widens; u16: the
  /// instance exceeds the 16-bit encoding and the dispatcher fails loudly).
  template <typename Dist>
  [[nodiscard]] bool scan_agent_budgeted_t(Vertex v, UsageCost model, bool stop_at_first,
                                           bool include_deletions, std::uint64_t* moves_checked,
                                           Scratch& scratch, std::optional<Deviation>& out) const;

  /// Far filter of the budgeted max scan for the removed edges
  /// nbrs[first, first + count), count ≤ 64, over the scan tables in
  /// `scratch`: sets bit e − first of scratch.alive_[x] iff candidate x
  /// reaches every vertex of edge e's far set within `cap` in G − v. Runs
  /// one bfs_batch_reach per ≤ 64 vertices of the group's union far set.
  /// Returns the group's edges whose far set holds a vertex whose masked
  /// row saturates the width (DESIGN.md §16).
  template <typename Dist>
  [[nodiscard]] std::uint64_t reach_filter_t(Vertex v, std::size_t first, std::size_t count,
                                             std::int32_t cap, Scratch& scratch) const;

  /// The snapshot's unmasked capped APSP at width `Dist`, built on first
  /// need (on the pool) and shared read-only by every lane and by the
  /// k-move paths; nullptr when some distance saturates the width. Dense
  /// paths only (n < 65535).
  template <typename Dist>
  [[nodiscard]] const Dist* shared_rows() const;

  /// Far set + dedup'd coverage sets of agent v over symmetric full-graph
  /// rows, then cover_select at each budget in [k_lo, k_hi]; fills `out`
  /// with the verdict at the first coverable budget (stable otherwise) and,
  /// when `tolerated` is non-null, the max_tolerated_insertions answer.
  template <typename Dist>
  void insertion_report_t(const Dist* apsp, Vertex v, Vertex k_lo, Vertex k_hi, Scratch& scratch,
                          KStabilityReport& out, Vertex* tolerated) const;

  template <typename Dist>
  [[nodiscard]] KStabilityReport insertion_sweep_t(const Dist* apsp, Vertex k) const;

  template <typename Dist>
  [[nodiscard]] bool swap_stability_t(Vertex v, Vertex k, std::uint64_t old_ecc, Scratch& scratch,
                                      KStabilityReport& out) const;

  template <typename Dist>
  [[nodiscard]] bool alpha_scan_t(Vertex v, const std::vector<std::uint8_t>& owned,
                                  Scratch& scratch) const;

  /// One width's shared slab: built at most once per snapshot under
  /// `mutex`, published through `state` (acquire/release), then read-only.
  template <typename Dist>
  struct SharedRows {
    enum : std::uint8_t { kUnbuilt, kReady, kSaturated };
    AlignedVec<Dist> rows;
    /// u16 slab of a u8-preferring engine whose u8 slab saturates: per row,
    /// the finite entries above the u8 cap (masked_exceeds_u8's counts).
    std::vector<std::uint32_t> over_u8;
    std::uint64_t over_u8_total = 0;
    std::atomic<std::uint8_t> state{kUnbuilt};
    std::mutex mutex;

    void reset() {
      rows.clear();
      over_u8.clear();
      over_u8_total = 0;
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
  /// Shared across the const certify() path's threads; relaxed is enough
  /// for a monotone counter.
  mutable std::atomic<std::uint64_t> width_fallbacks_{0};
  mutable SharedRows<std::uint8_t> shared8_;
  mutable SharedRows<std::uint16_t> shared16_;
  Scratch scratch_;  // for the convenience overloads
};

}  // namespace bncg
