// Incremental sum-unrest search state — delta evaluation for *search*, the
// way core/swap_engine.hpp is delta evaluation for *certification*.
//
// Equilibrium search (core/search.hpp) sits in a propose → evaluate →
// accept/reject loop whose evaluation step used to recompute the unrest
// potential from scratch: one vertex-masked APSP plus a best-response scan
// per agent, per proposal. SearchState makes the loop incremental in the
// sum model, where anneal uses it up to kSearchStateAutoMaxVertices. (Max
// anneal and larger sum anneals evaluate each proposal on a rebuilt
// SwapEngine instead, and best-response dynamics re-snapshot one per move:
// core/search.cpp, core/dynamics.hpp.) It rests on three observations:
//
//  1. Toggling one edge {u, v} cannot be used to *skip* agents exactly: the
//     entry d_{G−a}(u, v) of every agent's masked matrix changes on every
//     toggle (an added edge drops it to 1; a removed edge lifts it off 1),
//     and the best-response scan reads every entry. What CAN be made cheap
//     is each agent's re-evaluation, by caching every agent's masked
//     distance matrix d_{G−a} across proposals:
//       * addition of {u, v}: a shortest path uses a new edge at most once,
//         so d'(x,y) = min(d(x,y), d(x,u)+1+d(v,y), d(x,v)+1+d(u,y)) updates
//         each cached matrix in one branch-free streaming pass — no BFS;
//       * removal of {u, v}: row x changes only if the edge lies on some
//         shortest path from x, i.e. |d(x,u) − d(x,v)| = 1 (a shortest-path
//         prefix is shortest, so a shortest path crossing u→v reaches u
//         shortest-ly). Only these *dirty rows* are re-traversed, batched
//         through graph/bfs_batch (csr_apsp_rows_capped); clean rows kept.
//     Distances are stored in a width-adaptive capped-infinity encoding
//     (graph/dist_width.hpp): kSearchInf8 = 0x3F when the instance's
//     diameter fits 8 bits, kSearchInf16 = 0x3FFF otherwise. Either cap
//     keeps the addition formula's two chained adds (≤ 2·kInf + 1) inside
//     the storage type, so the whole pass stays branch-free add/min — and
//     the u8 layout halves the bandwidth of every row stream.
//  2. The same pass that streams an agent's updated rows accumulates, per
//     candidate w₂, the relief bound
//       R1[w₂] = Σ_y max(0, min1_y − d'(w₂, y))
//     (min1 = elementwise min over the agent's neighbor rows). For every
//     removed edge w the post-swap cost is (n−1) + Σ_y M^w_y − relief, and
//     both the kept-neighbor sum's excess over Σ min1 and the relief's
//     excess over R1 are the same owned-slack Σ_{argmin_y=w} (min2_y −
//     min1_y), so they cancel:  cost(w, w₂) ≥ (n−1) + Σ_{y≠a} min1_y −
//     R1[w₂] — one w-independent O(1) test per candidate, the sum model's
//     analogue of the engine's max-model far-set filter. The prune only
//     ever skips candidates that provably cannot beat the running best, so
//     every agent's best cost matches the engine and the bncg::naive
//     oracles.
//  3. Evaluation never writes the matrix cache: per agent, only the CHANGED
//     rows are touched — their old contributions are subtracted from cached
//     per-agent scan tables (min1/min2/argmin and R1), the new rows are
//     materialized into a per-thread scratch matrix behind row-pointer
//     indirection, and new contributions are added. Accepting a proposal
//     records the toggle and flips two O(1) buffers (full matrix and scan
//     tables are double-buffered; every staged evaluation parks its
//     proposal tables in the shadow set). Every commit follows an
//     evaluation that brought every agent current, so an agent matrix is
//     at most that one toggle behind and catches up on its next evaluation:
//     an addition replays as a formula pass over the changed rows, a
//     removal re-traverses the dirty rows. Rejection costs nothing.
//
// The width is invisible in the results: SearchState (the public facade)
// starts narrow when the diameter bound fits, and any refresh that meets a
// finite distance the u8 cap cannot represent *promotes* the whole state to
// u16 — every cached structure is a pure function of the current graph plus
// the staged toggle, so promotion is a rebuild-at-width, bit-identical to
// having run u16 from the start (DESIGN.md §10 has the protocol).
//
// Everything here is exact: differential tests (tests/test_search_state.cpp
// and the cross-width fuzz suite tests/test_width_fuzz.cpp) pin unrest
// values and scan tables to full naive recomputation after every accepted
// and rejected proposal. DESIGN.md §9 documents the invalidation rule and
// the measured cost model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/equilibrium.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"
#include "graph/dist_width.hpp"
#include "graph/graph.hpp"
#include "util/simd.hpp"

namespace bncg {

/// Largest n for which sum anneal evaluates through the incremental state;
/// above it every proposal is evaluated on a rebuilt SwapEngine.
/// The cache holds one n×n² slab (n³ bytes in u8, 2n³ in u16: 0.13–0.27 GB
/// at this cap), so unbounded auto-enablement would silently trade the
/// engine's O(n²) scratch for gigabytes. Direct construction accepts any
/// n ≤ 16382 when the caller accepts the memory bill.
inline constexpr Vertex kSearchStateAutoMaxVertices = 512;

/// True when sum anneal should evaluate through SearchState: n within the
/// auto-enable cap and BNCG_FORCE_NAIVE not set.
[[nodiscard]] bool search_state_enabled(const Graph& g);

/// Operation counters for benchmarks and the differential harness.
struct SearchStats {
  std::uint64_t proposals = 0;        ///< propose_toggle() calls
  std::uint64_t evaluations = 0;      ///< proposal_unrest() computations
  std::uint64_t commits = 0;          ///< accepted proposals
  std::uint64_t rows_refreshed = 0;   ///< rows re-traversed after removals
  std::uint64_t rows_reused = 0;      ///< rows kept by the dirty-row test
  std::uint64_t agents_scanned = 0;   ///< best-response scans executed
  std::uint64_t candidates_pruned = 0;    ///< candidates rejected by R1
  std::uint64_t candidates_combined = 0;  ///< candidates fully combined
  std::uint64_t promotions = 0;           ///< u8 → u16 cap promotions
};

/// Connectivity/diameter screen of a pending toggle (read off the
/// incrementally updated full-graph matrix, no fresh traversal).
struct ToggleShape {
  bool connected = false;
  Vertex diameter = 0;  ///< kInfDist when disconnected
};

/// Width-typed incremental evaluation state — the implementation behind the
/// SearchState facade, instantiated for Dist ∈ {u8, u16}. Every distance
/// slab, scan table, and delta kernel runs in Dist; the u8 instantiation
/// throws WidthSaturated from any refresh that meets a finite distance
/// above kMaxFiniteFor<u8> (the facade catches it and promotes). Use the
/// facade unless you are the facade.
template <typename Dist>
class SearchStateImpl {
 public:
  static constexpr Dist kInf = kSearchInfFor<Dist>;
  static constexpr Dist kMaxFinite = kMaxFiniteFor<Dist>;

  /// Snapshots `g` (connected or not) and builds the full-graph matrix
  /// (throws WidthSaturated when it does not fit the width). Per-agent
  /// masked matrices materialize lazily on first use.
  SearchStateImpl(const Graph& g, bool parallel);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }
  [[nodiscard]] Vertex diameter() const noexcept;  ///< kInfDist if disconnected
  [[nodiscard]] bool connected() const noexcept;

  [[nodiscard]] std::uint64_t unrest();

  ToggleShape propose_toggle(Vertex u, Vertex v);
  [[nodiscard]] std::uint64_t proposal_unrest();
  void commit();

  [[nodiscard]] const SearchStats& stats() const noexcept { return stats_; }
  /// Replaces the counters wholesale — promotion carries the u8 impl's
  /// counters into its u16 successor so the run's totals survive the swap.
  void adopt_stats(const SearchStats& stats) noexcept { stats_ = stats; }

  /// Test introspection: agent a's scan tables brought current and widened
  /// to width-independent values (capped ∞ → kInfDist). See the facade.
  void debug_scan_tables(Vertex a, std::vector<Vertex>& min1, std::vector<Vertex>& min2,
                         std::vector<Vertex>& argmin, std::vector<std::uint32_t>& r1);

 private:
  /// Per-lane scan scratch (mirrors SwapEngine::Scratch) plus per-lane stat
  /// counters merged after each pass (keeps parallel passes race-free). The
  /// SIMD-streamed arrays use 64-byte-aligned storage. Lane scratch lives in
  /// the persistent scratch_ member — allocated once, warm across passes.
  struct Scratch {
    BatchBfsWorkspace bfs;
    AlignedVec<Dist> proposal_rows;     // staged-toggle matrix (n×n)
    std::vector<const Dist*> rowptr;    // per-row source (cache/scratch)
    std::vector<Vertex> cands;          // static candidate survivors
    AlignedVec<Dist> row_u, row_v;      // stashed toggle-endpoint rows
    AlignedVec<Dist> min1, min2;        // elementwise neighbor minima
    AlignedVec<Vertex> argmin;
    AlignedVec<Dist> mrow;              // M^w: min over N(a)∖{w}
    AlignedVec<std::uint32_t> r1;       // relief bound
    std::vector<std::uint8_t> is_nbr;
    std::vector<Vertex> sources;        // dirty rows to refresh
    std::vector<Vertex> nbrs;           // proposal-adjusted neighbor list
    SearchStats stats;
  };

  struct ScanResult {
    std::uint64_t best_cost = kInfCost;  // best cost_after over deviations
    bool found = false;
  };

  [[nodiscard]] Dist* agent_rows(Vertex a) noexcept {
    return agents_.data() + static_cast<std::size_t>(a) * n_ * n_;
  }
  [[nodiscard]] Dist* table_min1(Vertex a) noexcept {
    return tmin1_[tcur_].data() + static_cast<std::size_t>(a) * n_;
  }
  [[nodiscard]] Dist* table_min2(Vertex a) noexcept {
    return tmin2_[tcur_].data() + static_cast<std::size_t>(a) * n_;
  }
  [[nodiscard]] Vertex* table_argmin(Vertex a) noexcept {
    return targmin_[tcur_].data() + static_cast<std::size_t>(a) * n_;
  }
  [[nodiscard]] std::uint32_t* table_r1(Vertex a) noexcept {
    return tr1_[tcur_].data() + static_cast<std::size_t>(a) * n_;
  }
  /// Stores the scratch tables (which describe the staged proposal for
  /// agent a) into the shadow table set; commit() flips the sets, so an
  /// accepted proposal's tables become current for free.
  void store_shadow_tables(Vertex a, const Scratch& scratch);
  [[nodiscard]] Dist* full_rows(std::size_t slab) noexcept { return full_[slab].data(); }

  /// csr_apsp_rows_capped under this width's cap; throws WidthSaturated
  /// instead of returning false (u16 cannot saturate: n ≤ kMaxFinite + 1).
  void refresh_rows(const CsrGraph& g, std::span<const Vertex> sources, MaskedEdge mask,
                    Dist* matrix, BatchBfsWorkspace& bfs, Vertex masked_vertex);

  void ensure_slabs();
  void ensure_table_slabs();
  void ensure_agent_current(Vertex a, Scratch& scratch);
  /// Builds agent a's persistent scan tables if it has none yet (matrix
  /// must be current); commit() keeps built tables current thereafter.
  void ensure_tables(Vertex a, Scratch& scratch);
  /// Copies agent a's persistent tables into the scratch working copies.
  void load_tables(Vertex a, Scratch& scratch);
  void rebuild_agent(Vertex a, Scratch& scratch);
  void update_full_matrix_addition(Vertex u, Vertex v, std::size_t dst_slab, Scratch& scratch);
  void update_full_matrix_removal(Vertex u, Vertex v, std::size_t dst_slab, Scratch& scratch);
  void refresh_shape(std::size_t slab);
  void merge_stats(Scratch& scratch);

  /// Streams agent a's updated matrix for the staged addition into the
  /// scratch proposal matrix while accumulating R1 and neighbor minima;
  /// pure formula, the cached matrix is only read.
  void stream_addition(Vertex a, Vertex u, Vertex v, Scratch& scratch);
  /// Copies agent a's matrix into the scratch proposal matrix and
  /// re-traverses the rows dirtied by the staged removal.
  void stream_removal(Vertex a, Vertex u, Vertex v, Scratch& scratch);
  /// Builds min1/min2/argmin and R1 for a matrix already in place.
  void prepare_scan(const Dist* rows, Scratch& scratch);
  /// Builds min1/min2/argmin and R1 from scratch.rowptr rows.
  void scan_tables(Scratch& scratch);

  /// Best swap cost of agent a over the tables and rows in `scratch`.
  ScanResult scan_agent(Vertex a, std::uint64_t old_cost, Scratch& scratch);

  [[nodiscard]] std::uint64_t evaluate_pass(bool staged);
  [[nodiscard]] static std::uint64_t unrest_contribution(const ScanResult& r,
                                                         std::uint64_t old_cost);
  [[nodiscard]] std::uint64_t agent_cost_from_full(std::size_t slab, Vertex a) const;
  void proposal_neighbors(Vertex a, Vertex tu, Vertex tv, bool add, bool staged,
                          std::vector<Vertex>& out) const;

  Graph graph_;
  CsrGraph csr_;
  bool parallel_;
  Vertex n_ = 0;

  // Full-graph matrix: double-buffered (entries use kInf for ∞); fcur_
  // indexes the live copy, the other is the shadow a staged toggle is
  // screened into, and commit is the O(1) index flip. Per-agent masked
  // matrices live in ONE slab updated lazily after each commit —
  // evaluation materializes proposal matrices into per-thread scratch
  // instead of a shadow slab, halving both memory and DRAM write traffic.
  AlignedVec<Dist> full_[2];  // n×n full-graph distances
  AlignedVec<Dist> agents_;   // n slabs of n×n masked distances
  std::size_t fcur_ = 0;

  // Persistent per-agent scan tables (n entries per agent): coordinate-wise
  // neighbor minima and the R1 relief bound. A staged evaluation derives an
  // agent's proposal tables from its current ones by changed-row deltas, so
  // it only touches rows the toggle actually changes.
  // Double-buffered like the full matrix: staged evaluations write every
  // agent's proposal tables to the shadow set, and commit() flips tcur_ —
  // the accepted proposal's tables become current with no recomputation.
  // table_version_[a] is the commit the current set matches (kUnbuilt =
  // must build); it runs ahead of version_[a] right after a commit, while
  // the matrix has not caught up yet.
  AlignedVec<Dist> tmin1_[2], tmin2_[2];
  AlignedVec<Vertex> targmin_[2];
  AlignedVec<std::uint32_t> tr1_[2];
  std::size_t tcur_ = 0;
  std::vector<std::uint64_t> table_version_;

  // Shape caches of the full matrices (per slab): agent a's cost, and its
  // eccentricity for the connectivity/diameter screen.
  std::vector<std::uint32_t> rowsum_[2];  // Σ_y d(a, y) over capped values
  std::vector<Dist> rowmax_[2];           // max_y d(a, y)
  Vertex diameter_[2] = {0, 0};           // kInfDist when disconnected

  // Lazy per-agent maintenance. head_ counts commits; version_[a] is the
  // commit agent a's matrix matches, kUnbuilt before its first build. Every
  // commit follows an evaluation that brought every agent to head_, so a
  // built agent is at most the last committed toggle behind, and it replays
  // that toggle against csr_ — the graph right after it.
  Vertex last_u_ = kNoVertex, last_v_ = kNoVertex;
  bool last_add_ = false;
  std::uint64_t head_ = 0;
  std::vector<std::uint64_t> version_;
  static constexpr std::uint64_t kUnbuilt = ~std::uint64_t{0};

  // Staged proposal.
  bool staged_ = false;
  bool evaluated_ = false;
  Vertex staged_u_ = kNoVertex, staged_v_ = kNoVertex;
  bool staged_add_ = false;
  std::uint64_t staged_unrest_ = 0;

  std::optional<std::uint64_t> unrest_;  // cached unrest of the live graph
  SearchStats stats_;
  std::vector<Scratch> scratch_;  // scratch_[0] serves the serial paths
};

extern template class SearchStateImpl<std::uint8_t>;
extern template class SearchStateImpl<std::uint16_t>;

/// Incremental sum-unrest evaluation state for equilibrium search — the
/// public, width-adaptive facade. Picks the u8 implementation when a cheap
/// diameter bound fits the 8-bit cap (or WidthPolicy::ForceU8 asks for it),
/// and transparently promotes to u16 the moment any refreshed row would
/// saturate — callers never observe the width except through width() and
/// stats().promotions; every value and trajectory is identical
/// across widths. Not thread-safe; internal passes parallelize over agents
/// on the process thread pool when `parallel` is set (results are
/// deterministic either way — per-agent outputs fold serially).
class SearchState {
 public:
  /// Snapshots `g` (connected or not). Requires 1 ≤ n ≤ 16382.
  explicit SearchState(const Graph& g, bool parallel = true,
                       WidthPolicy width = WidthPolicy::Auto);
  ~SearchState();
  SearchState(const SearchState&) = delete;
  SearchState& operator=(const SearchState&) = delete;

  /// The current graph. Like stats(), the reference points into the active
  /// implementation: any mutating call (commit, or an evaluation that
  /// promotes u8 → u16 and rebuilds the backing state) invalidates
  /// previously returned references — re-fetch after mutations, copy to
  /// keep.
  [[nodiscard]] const Graph& graph() const noexcept;
  [[nodiscard]] Vertex num_vertices() const noexcept;
  [[nodiscard]] Vertex diameter() const noexcept;  ///< kInfDist if disconnected
  [[nodiscard]] bool connected() const noexcept;

  /// Distance storage width currently in use (U8 until a promotion).
  [[nodiscard]] DistWidth width() const noexcept;

  /// Total unrest of the current graph: Σ_a (gain of a's best swap), 0 iff
  /// no agent has an improving swap — so 0 ⇔ the sum certifier passes.
  /// Equals sum_unrest(). Lazily computed, cached until the graph changes.
  /// Intended for connected graphs.
  [[nodiscard]] std::uint64_t unrest();

  /// Stages toggling edge {u, v} and returns the cheap shape screen of the
  /// would-be graph. No agent work happens here; a subsequent
  /// proposal_unrest() evaluates the staged toggle, commit() accepts it, and
  /// staging a new toggle discards the old one. u ≠ v, both in range.
  ToggleShape propose_toggle(Vertex u, Vertex v);

  /// Exact unrest of the staged toggle's graph (== unrest() after
  /// committing it). Requires a staged toggle.
  [[nodiscard]] std::uint64_t proposal_unrest();

  /// Accepts the staged toggle: two buffer flips plus a CSR rebuild; the
  /// cached per-agent matrices catch up on the next evaluation. Requires
  /// the staged toggle to have been evaluated.
  void commit();

  /// Counters of this run (carried across promotions). Invalidated like
  /// graph(): a promoting call rebuilds the backing state.
  [[nodiscard]] const SearchStats& stats() const noexcept;

  /// Width-independent snapshot of agent a's (current-graph) scan tables,
  /// with the capped infinity widened to kInfDist — so a promoted state and
  /// a from-scratch u16 state can be compared table for table (the
  /// promotion-invariant property tests do exactly that).
  struct ScanTables {
    std::vector<Vertex> min1, min2, argmin;
    std::vector<std::uint32_t> r1;
  };
  [[nodiscard]] ScanTables debug_scan_tables(Vertex a);

 private:
  template <typename F>
  decltype(auto) dispatch(F&& f);
  void promote();

  bool parallel_;
  // Facade copy of the staged toggle so a promotion mid-evaluation can
  // re-stage it on the fresh u16 state before retrying.
  bool staged_ = false;
  Vertex staged_u_ = kNoVertex, staged_v_ = kNoVertex;
  std::unique_ptr<SearchStateImpl<std::uint8_t>> impl8_;
  std::unique_ptr<SearchStateImpl<std::uint16_t>> impl16_;
};

}  // namespace bncg
