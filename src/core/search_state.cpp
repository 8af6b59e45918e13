#include "core/search_state.hpp"

#include "core/swap_engine.hpp"
#include "graph/bfs.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace bncg {

namespace {

// The capped sum combine, the scan-table min folds, the addition-identity
// row stream, and the dirty-row filters live in the
// runtime-dispatched kernel tables of util/simd.hpp; the scalar references
// in util/simd.cpp preserve these loops' exact wrap and strict-'<' tie-break
// semantics. Kernels report "unreachable" as simd::kInfCostResult:
static_assert(simd::kInfCostResult == kInfCost,
              "kernel infinite-cost sentinel must match core's kInfCost");

/// Exact saturation pre-check for adding edge {u, v} on a capped-infinity
/// matrix (`row_u`/`row_v` are the pre-update endpoint rows). Distances can
/// only *shrink* under an addition, so a new finite value above the cap can
/// appear only when the edge **bridges** two components (some pair flips
/// from ∞ to finite) — i.e. when d(u, v) = ∞ — and the largest new finite
/// distance is then exactly eccf(u) + 1 + eccf(v) (finite eccentricities,
/// realized by the farthest pair across the bridge: that pair's only route
/// runs through the new edge). Checking that sum against kMaxFinite is
/// therefore exact, costs one vectorizable max-scan of the two stashed
/// rows, and keeps the row kernel itself pure add/min. At u16 the test can
/// never fire: the two components together hold ≤ n ≤ kMaxFinite + 1
/// vertices, so eccf(u) + 1 + eccf(v) ≤ n − 1 ≤ kMaxFinite.
template <typename Dist>
[[nodiscard]] bool addition_saturates(const Dist* row_u, const Dist* row_v, Vertex v, Vertex n,
                                      Dist inf) {
  if (row_u[v] < inf) return false;  // same component: distances only shrink
  Dist ecc_u = 0;
  Dist ecc_v = 0;
  simd::kernels<Dist>().finite_max2(row_u, row_v, n, inf, &ecc_u, &ecc_v);
  return std::uint32_t{ecc_u} + 1 + ecc_v > kMaxFiniteFor<Dist>;
}

/// Single-edge-addition identity on a capped-infinity distance matrix:
/// d'(x,y) = min(d(x,y), d(x,u)+1+d(v,y), d(x,v)+1+d(u,y)). `ru`/`rv` hold
/// the pre-update rows of u and v; all arithmetic stays ≤ 2·kInf + 1 (two
/// chained adds of capped values), which fits the storage type at either
/// width — 127 < 2⁸, 2¹⁵ < 2¹⁶ — so the loop is branch-free add/min and
/// vectorizes under -O3 (twice as many lanes in u8). Callers must have run
/// addition_saturates first: a "fake" sum through an ∞ component is ≥
/// kInf + 1 and the final clamp maps it back to ∞, which is only correct
/// when no genuine finite distance lives above the cap.
template <typename Dist>
void addition_row(const Dist* src_row, Dist* dst_row, const Dist* ru, const Dist* rv, Vertex u,
                  Vertex v, Vertex n, Dist inf) {
  const Dist au = static_cast<Dist>(src_row[u] + 1);
  const Dist av = static_cast<Dist>(src_row[v] + 1);
  simd::kernels<Dist>().addition_row(src_row, dst_row, ru, rv, au, av, n, inf);
}

// Row-level no-op test for adding edge {u, v} (the collect_absdiff_gt1 call
// sites): if |d(x,u) − d(x,v)| ≤ 1, no pair (x, y) gains a shortcut —
// d(x,u)+1+d(v,y) ≥ d(x,v)+d(v,y) ≥ d(x,y) by the triangle inequality (and
// symmetrically) — so row x is unchanged and only rows with diff > 1 need
// the formula pass. In small-diameter graphs that is few of them. Sound on
// capped values because the largest finite distance is kInf − 2: a capped ∞
// differs from every finite value by ≥ 2, so the test can never conflate
// "unreachable" with "one hop closer".

/// Dirty-row test for removing edge {u, v}: a shortest path from x crossing
/// u→v reaches u shortest-ly (prefixes of shortest paths are shortest), so
/// the edge lies on some shortest path from x iff |d(x,u) − d(x,v)| = 1.
/// Rows failing the test are exactly the rows the removal cannot change
/// (same kInf − 2 cap argument as addition_leaves_row).
template <typename Dist>
void collect_dirty_rows(const Dist* row_u, const Dist* row_v, Vertex n,
                        std::vector<Vertex>& out) {
  out.resize(n);
  out.resize(simd::kernels<Dist>().collect_absdiff_eq1(row_u, row_v, n, out.data()));
}

/// Removes row x's contribution from the R1 relief bound. Must run with the
/// row's pre-update content and pre-update min1[x], so the subtraction
/// exactly cancels what the row previously added.
template <typename Dist>
void table_sub_row(std::uint32_t* r1, Dist min1x, const Dist* row, Vertex n) {
  simd::kernels<Dist>().r1_sub(r1, min1x, row, n);
}

/// Refolds coordinate x's neighbor minima from the row's new content and
/// adds the row's new R1 contribution.
template <typename Dist>
void table_add_row(Dist* min1, Dist* min2, Vertex* argmin, std::uint32_t* r1, Vertex x,
                   const Dist* row, const Vertex* nbrs, std::size_t deg, Vertex n, Dist inf) {
  Dist m1 = inf;
  Dist m2 = inf;
  Vertex am = kNoVertex;
  for (std::size_t i = 0; i < deg; ++i) {
    const Dist val = row[nbrs[i]];
    if (val < m1) {
      m2 = m1;
      m1 = val;
      am = nbrs[i];
    } else if (val < m2) {
      m2 = val;
    }
  }
  min1[x] = m1;
  min2[x] = m2;
  argmin[x] = am;
  simd::kernels<Dist>().r1_add(r1, m1, row, n);
}

/// Thresholds above this are effectively infinite: the R1 prune comparison
/// adds R1 (≤ n · kInf) to the threshold, and skipping the prune for huge
/// thresholds keeps that addition overflow-free.
constexpr std::uint64_t kPruneThresholdCap = std::uint64_t{1} << 40;

}  // namespace

bool search_state_enabled(const Graph& g) {
  return !force_naive_requested() && g.num_vertices() <= kSearchStateAutoMaxVertices;
}

template <typename Dist>
SearchStateImpl<Dist>::SearchStateImpl(const Graph& g, bool parallel)
    : graph_(g),
      csr_(g),
      parallel_(parallel),
      n_(g.num_vertices()) {
  BNCG_REQUIRE(n_ >= 1 && n_ <= kMaxFiniteFor<std::uint16_t> + 1,
               "SearchState requires 1 <= n <= 16382");
  const std::size_t nn = static_cast<std::size_t>(n_) * n_;
  full_[0].resize(nn);
  full_[1].resize(nn);
  for (int s = 0; s < 2; ++s) {
    rowsum_[s].resize(n_);
    rowmax_[s].resize(n_);
  }
  version_.assign(n_, kUnbuilt);
  table_version_.assign(n_, kUnbuilt);
  scratch_.resize(1);

  std::vector<Vertex> all(n_);
  std::iota(all.begin(), all.end(), Vertex{0});
  refresh_rows(csr_, all, MaskedEdge{}, full_rows(fcur_), scratch_[0].bfs, kNoVertex);
  refresh_shape(fcur_);
}

template <typename Dist>
void SearchStateImpl<Dist>::refresh_rows(const CsrGraph& g, std::span<const Vertex> sources,
                                         MaskedEdge mask, Dist* matrix, BatchBfsWorkspace& bfs,
                                         Vertex masked_vertex) {
  if (!csr_apsp_rows_capped<Dist>(g, sources, mask, matrix, n_, bfs, masked_vertex, kInf,
                                  kMaxFinite)) {
    throw WidthSaturated{};
  }
}

template <typename Dist>
Vertex SearchStateImpl<Dist>::diameter() const noexcept {
  return diameter_[fcur_];
}

template <typename Dist>
bool SearchStateImpl<Dist>::connected() const noexcept {
  return diameter_[fcur_] != kInfDist;
}

template <typename Dist>
void SearchStateImpl<Dist>::refresh_shape(std::size_t slab) {
  const Vertex n = n_;
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Dist* rows = full_[slab].data();
  std::uint32_t* rowsum = rowsum_[slab].data();
  Dist* rowmax = rowmax_[slab].data();
  Vertex worst = 0;
  bool disconnected = false;
  for (Vertex a = 0; a < n; ++a) {
    const Dist* row = rows + static_cast<std::size_t>(a) * n;
    std::uint32_t sum = 0;
    Dist mx = 0;
    kern.row_sum_max(row, n, &sum, &mx);
    rowsum[a] = sum;
    rowmax[a] = mx;
    if (mx >= kInf) disconnected = true;
    worst = std::max<Vertex>(worst, mx);
  }
  diameter_[slab] = disconnected ? kInfDist : worst;
}

template <typename Dist>
std::uint64_t SearchStateImpl<Dist>::agent_cost_from_full(std::size_t slab, Vertex a) const {
  if (rowmax_[slab][a] >= kInf) return kInfCost;
  return rowsum_[slab][a];
}

template <typename Dist>
void SearchStateImpl<Dist>::ensure_slabs() {
  if (!agents_.empty()) return;
  agents_.resize(static_cast<std::size_t>(n_) * n_ * n_);
}

template <typename Dist>
void SearchStateImpl<Dist>::rebuild_agent(Vertex a, Scratch& s) {
  s.sources.resize(n_);
  std::iota(s.sources.begin(), s.sources.end(), Vertex{0});
  refresh_rows(csr_, s.sources, MaskedEdge{}, agent_rows(a), s.bfs, /*masked_vertex=*/a);
}

template <typename Dist>
void SearchStateImpl<Dist>::ensure_agent_current(Vertex a, Scratch& s) {
  if (version_[a] == head_) return;
  ensure_slabs();
  if (version_[a] == kUnbuilt) {
    rebuild_agent(a, s);
    version_[a] = head_;
    return;
  }
  // One toggle behind (see version_). Its scan tables are already current:
  // commit() flipped in the ones the evaluation derived for this graph.
  version_[a] = head_;
  if (last_u_ == a || last_v_ == a) return;  // edges at the masked vertex vanish
  Dist* rows = agent_rows(a);
  const Vertex n = n_;
  if (last_add_) {
    // In-place formula replay: stash the pre-update endpoint rows first,
    // then touch only the rows the addition can change — row x is
    // unchanged when |d(x,u) − d(x,v)| ≤ 1 (no pair gains a shortcut by
    // the triangle inequality), read off the stashed rows by symmetry.
    s.row_u.assign(rows + static_cast<std::size_t>(last_u_) * n,
                   rows + static_cast<std::size_t>(last_u_) * n + n);
    s.row_v.assign(rows + static_cast<std::size_t>(last_v_) * n,
                   rows + static_cast<std::size_t>(last_v_) * n + n);
    const Dist* ru = s.row_u.data();
    const Dist* rv = s.row_v.data();
    if (addition_saturates(ru, rv, last_v_, n, kInf)) throw WidthSaturated{};
    s.sources.resize(n);
    s.sources.resize(simd::kernels<Dist>().collect_absdiff_gt1(ru, rv, n, s.sources.data()));
    for (const Vertex x : s.sources) {
      Dist* row = rows + static_cast<std::size_t>(x) * n;
      addition_row(row, row, ru, rv, last_u_, last_v_, n, kInf);
    }
    return;
  }
  // Removal: re-traverse the dirty rows on csr_, which no longer has the edge.
  collect_dirty_rows(rows + static_cast<std::size_t>(last_u_) * n,
                     rows + static_cast<std::size_t>(last_v_) * n, n, s.sources);
  s.stats.rows_refreshed += s.sources.size();
  s.stats.rows_reused += n - s.sources.size();
  refresh_rows(csr_, s.sources, MaskedEdge{}, rows, s.bfs, /*masked_vertex=*/a);
}

template <typename Dist>
void SearchStateImpl<Dist>::ensure_table_slabs() {
  if (!tmin1_[0].empty()) return;
  const std::size_t total = static_cast<std::size_t>(n_) * n_;
  for (int set = 0; set < 2; ++set) {
    tmin1_[set].resize(total);
    tmin2_[set].resize(total);
    targmin_[set].resize(total);
    tr1_[set].resize(total);
  }
}

template <typename Dist>
void SearchStateImpl<Dist>::store_shadow_tables(Vertex a, const Scratch& s) {
  const std::size_t shadow = 1 - tcur_;
  const std::size_t off = static_cast<std::size_t>(a) * n_;
  std::memcpy(tmin1_[shadow].data() + off, s.min1.data(), n_ * sizeof(Dist));
  std::memcpy(tmin2_[shadow].data() + off, s.min2.data(), n_ * sizeof(Dist));
  std::memcpy(targmin_[shadow].data() + off, s.argmin.data(), n_ * sizeof(Vertex));
  std::memcpy(tr1_[shadow].data() + off, s.r1.data(), n_ * sizeof(std::uint32_t));
}

template <typename Dist>
void SearchStateImpl<Dist>::ensure_tables(Vertex a, Scratch& s) {
  if (table_version_[a] == head_) return;
  ensure_table_slabs();
  // Full rebuild from the (current) matrix via the generic pass, then keep
  // the result as the persistent tables for this agent.
  const auto nbrs = csr_.neighbors(a);
  s.nbrs.assign(nbrs.begin(), nbrs.end());
  prepare_scan(agent_rows(a), s);
  const Vertex n = n_;
  std::memcpy(table_min1(a), s.min1.data(), n * sizeof(Dist));
  std::memcpy(table_min2(a), s.min2.data(), n * sizeof(Dist));
  std::memcpy(table_argmin(a), s.argmin.data(), n * sizeof(Vertex));
  std::memcpy(table_r1(a), s.r1.data(), n * sizeof(std::uint32_t));
  table_version_[a] = head_;
}

template <typename Dist>
void SearchStateImpl<Dist>::load_tables(Vertex a, Scratch& s) {
  const Vertex n = n_;
  s.min1.assign(table_min1(a), table_min1(a) + n);
  s.min2.assign(table_min2(a), table_min2(a) + n);
  s.argmin.assign(table_argmin(a), table_argmin(a) + n);
  s.r1.assign(table_r1(a), table_r1(a) + n);
}

template <typename Dist>
void SearchStateImpl<Dist>::merge_stats(Scratch& s) {
  stats_.rows_refreshed += s.stats.rows_refreshed;
  stats_.rows_reused += s.stats.rows_reused;
  stats_.agents_scanned += s.stats.agents_scanned;
  stats_.candidates_pruned += s.stats.candidates_pruned;
  stats_.candidates_combined += s.stats.candidates_combined;
  s.stats = SearchStats{};
}

template <typename Dist>
void SearchStateImpl<Dist>::update_full_matrix_addition(Vertex u, Vertex v, std::size_t dst_slab,
                                                        Scratch& s) {
  const Dist* src = full_rows(fcur_);
  Dist* dst = full_[dst_slab].data();
  const Vertex n = n_;
  s.row_u.assign(src + static_cast<std::size_t>(u) * n_,
                 src + static_cast<std::size_t>(u) * n_ + n_);
  s.row_v.assign(src + static_cast<std::size_t>(v) * n_,
                 src + static_cast<std::size_t>(v) * n_ + n_);
  if (addition_saturates(s.row_u.data(), s.row_v.data(), v, n, kInf)) throw WidthSaturated{};
  // One bulk copy, then rewrite only the changed rows (|d(x,u) − d(x,v)| > 1,
  // read off the stashed endpoint rows by symmetry — addition_leaves_row's
  // test, batched): the formula pass reads the intact source row anyway.
  std::memcpy(dst, src, static_cast<std::size_t>(n) * n * sizeof(Dist));
  s.sources.resize(n);
  s.sources.resize(simd::kernels<Dist>().collect_absdiff_gt1(s.row_u.data(), s.row_v.data(), n,
                                                             s.sources.data()));
  for (const Vertex x : s.sources) {
    addition_row(src + static_cast<std::size_t>(x) * n, dst + static_cast<std::size_t>(x) * n,
                 s.row_u.data(), s.row_v.data(), u, v, n, kInf);
  }
}

template <typename Dist>
void SearchStateImpl<Dist>::update_full_matrix_removal(Vertex u, Vertex v, std::size_t dst_slab,
                                                       Scratch& s) {
  const Dist* src = full_rows(fcur_);
  Dist* dst = full_[dst_slab].data();
  std::memcpy(dst, src, static_cast<std::size_t>(n_) * n_ * sizeof(Dist));
  collect_dirty_rows(src + static_cast<std::size_t>(u) * n_,
                     src + static_cast<std::size_t>(v) * n_, n_, s.sources);
  s.stats.rows_refreshed += s.sources.size();
  s.stats.rows_reused += n_ - s.sources.size();
  refresh_rows(csr_, s.sources, MaskedEdge{u, v}, dst, s.bfs, kNoVertex);
}

template <typename Dist>
ToggleShape SearchStateImpl<Dist>::propose_toggle(Vertex u, Vertex v) {
  BNCG_REQUIRE(u != v && u < n_ && v < n_, "toggle endpoints must be distinct in-range vertices");
  staged_ = true;
  evaluated_ = false;
  staged_u_ = u;
  staged_v_ = v;
  staged_add_ = !graph_.has_edge(u, v);
  ++stats_.proposals;
  const std::size_t shadow = 1 - fcur_;
  if (staged_add_) {
    update_full_matrix_addition(u, v, shadow, scratch_[0]);
  } else {
    update_full_matrix_removal(u, v, shadow, scratch_[0]);
  }
  refresh_shape(shadow);
  merge_stats(scratch_[0]);
  return {diameter_[shadow] != kInfDist, diameter_[shadow]};
}

template <typename Dist>
void SearchStateImpl<Dist>::proposal_neighbors(Vertex a, Vertex tu, Vertex tv, bool add,
                                               bool staged, std::vector<Vertex>& out) const {
  const auto base = csr_.neighbors(a);
  out.assign(base.begin(), base.end());
  if (!staged || (a != tu && a != tv)) return;
  const Vertex other = a == tu ? tv : tu;
  if (add) {
    out.insert(std::lower_bound(out.begin(), out.end(), other), other);
  } else {
    out.erase(std::lower_bound(out.begin(), out.end(), other));
  }
}

template <typename Dist>
void SearchStateImpl<Dist>::stream_addition(Vertex a, Vertex u, Vertex v, Scratch& s) {
  // Matrix and tables are current (the caller ran ensure_agent_current and
  // ensure_tables); derive the proposal's tables by delta: rows the addition
  // provably leaves alone (|d(x,u) − d(x,v)| ≤ 1, read off the stashed
  // endpoint rows by symmetry) keep serving from the cache and are never
  // read; changed rows swap their old contribution for the new one.
  const Dist* src = agent_rows(a);
  const Vertex n = n_;
  load_tables(a, s);
  s.proposal_rows.resize(static_cast<std::size_t>(n) * n);
  s.rowptr.resize(n);
  s.row_u.assign(src + static_cast<std::size_t>(u) * n,
                 src + static_cast<std::size_t>(u) * n + n);
  s.row_v.assign(src + static_cast<std::size_t>(v) * n,
                 src + static_cast<std::size_t>(v) * n + n);
  const Dist* ru = s.row_u.data();
  const Dist* rv = s.row_v.data();
  if (addition_saturates(ru, rv, v, n, kInf)) throw WidthSaturated{};
  Dist* scratch_rows = s.proposal_rows.data();
  const Dist** rowptr = s.rowptr.data();
  Dist* min1 = s.min1.data();
  Dist* min2 = s.min2.data();
  Vertex* argmin = s.argmin.data();
  std::uint32_t* r1 = s.r1.data();
  for (Vertex x = 0; x < n; ++x) rowptr[x] = src + static_cast<std::size_t>(x) * n;
  s.sources.resize(n);
  s.sources.resize(simd::kernels<Dist>().collect_absdiff_gt1(ru, rv, n, s.sources.data()));
  for (const Vertex x : s.sources) {
    const Dist* srow = src + static_cast<std::size_t>(x) * n;
    Dist* drow = scratch_rows + static_cast<std::size_t>(x) * n;
    table_sub_row(r1, min1[x], srow, n);
    addition_row(srow, drow, ru, rv, u, v, n, kInf);
    table_add_row(min1, min2, argmin, r1, x, drow, s.nbrs.data(), s.nbrs.size(), n, kInf);
    rowptr[x] = drow;
  }
}

/// Builds min1/min2/argmin (coordinate-wise neighbor minima) and the R1
/// relief bound from the per-row sources in scratch.rowptr.
///
/// The fold runs row-major over the NEIGHBOR rows instead of gathering the
/// neighbor columns of every row x: the virtual matrix M[x][y] = rowptr[x][y]
/// is exactly symmetric (cached rows and delta-streamed proposal rows alike
/// are rows of one masked distance matrix — the no-op row tests are exact,
/// so clean rows equal their proposal counterparts), hence
///   min_{z ∈ nbrs} M[x][z] = min_{z ∈ nbrs} M[z][x]
/// and folding neighbor z's row elementwise into (min1, min2, argmin) visits
/// the same values in the same z order as the gather — every strict-'<'
/// argmin tie-break is preserved bit for bit. The payoff: unit-stride
/// streams the SIMD scan_min_update kernel eats, instead of deg gathers per
/// row (and no manual prefetch).
template <typename Dist>
void SearchStateImpl<Dist>::scan_tables(Scratch& s) {
  const Vertex n = n_;
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  s.min1.assign(n, kInf);
  s.min2.assign(n, kInf);
  s.argmin.assign(n, kNoVertex);
  s.r1.assign(n, 0);
  for (const Vertex z : s.nbrs) {
    kern.scan_min_update(s.min1.data(), s.min2.data(), s.argmin.data(), s.rowptr[z], z, n);
  }
  // Second pass once min1 is final — the gather form also read min1[x]
  // only after x's full neighbor fold.
  std::uint32_t* r1 = s.r1.data();
  for (Vertex x = 0; x < n; ++x) {
    kern.r1_add(r1, s.min1[x], s.rowptr[x], n);
  }
}

template <typename Dist>
void SearchStateImpl<Dist>::stream_removal(Vertex a, Vertex u, Vertex v, Scratch& s) {
  // Same delta scheme as stream_addition, with the dirty rows re-traversed
  // into their scratch slots; clean rows keep serving from the cache.
  const Dist* src = agent_rows(a);
  const Vertex n = n_;
  load_tables(a, s);
  s.proposal_rows.resize(static_cast<std::size_t>(n) * n);
  s.rowptr.resize(n);
  collect_dirty_rows(src + static_cast<std::size_t>(u) * n,
                     src + static_cast<std::size_t>(v) * n, n, s.sources);
  s.stats.rows_refreshed += s.sources.size();
  s.stats.rows_reused += n - s.sources.size();
  Dist* min1 = s.min1.data();
  Dist* min2 = s.min2.data();
  Vertex* argmin = s.argmin.data();
  std::uint32_t* r1 = s.r1.data();
  for (const Vertex x : s.sources) {
    table_sub_row(r1, min1[x], src + static_cast<std::size_t>(x) * n, n);
  }
  refresh_rows(csr_, s.sources, MaskedEdge{u, v}, s.proposal_rows.data(), s.bfs,
               /*masked_vertex=*/a);
  for (Vertex x = 0; x < n; ++x) s.rowptr[x] = src + static_cast<std::size_t>(x) * n;
  for (const Vertex x : s.sources) {
    const Dist* drow = s.proposal_rows.data() + static_cast<std::size_t>(x) * n;
    table_add_row(min1, min2, argmin, r1, x, drow, s.nbrs.data(), s.nbrs.size(), n, kInf);
    s.rowptr[x] = drow;
  }
}

template <typename Dist>
void SearchStateImpl<Dist>::prepare_scan(const Dist* rows, Scratch& s) {
  const Vertex n = n_;
  s.rowptr.resize(n);
  for (Vertex x = 0; x < n; ++x) s.rowptr[x] = rows + static_cast<std::size_t>(x) * n;
  scan_tables(s);
}

template <typename Dist>
typename SearchStateImpl<Dist>::ScanResult SearchStateImpl<Dist>::scan_agent(
    Vertex a, std::uint64_t old_cost, Scratch& s) {
  ScanResult result;
  ++s.stats.agents_scanned;
  if (s.nbrs.empty()) return result;
  const Vertex n = n_;
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Dist* const* rowptr = s.rowptr.data();

  s.is_nbr.assign(n, 0);
  s.is_nbr[a] = 1;
  for (const Vertex w : s.nbrs) s.is_nbr[w] = 1;
  s.mrow.resize(n);

  // Prune valid for EVERY removed edge w at once: with
  // base = Σ_{y≠a} min1_y and R1[w2] = Σ_y max(0, min1_y − c_{w2,y}),
  //   cost(w, w2) = (n−1) + Σ_y M^w_y − relief(w, w2)
  //               ≥ (n−1) + base − R1[w2],
  // because Σ_y M^w_y exceeds base by the same owned slack
  // Σ_{argmin_y=w} (min2_y − min1_y) by which R1[w2] + slack bounds the
  // relief (max(0, x+δ) ≤ max(0, x) + δ for δ ≥ 0) — the slack cancels.
  // min1[a] = ∞ (every neighbor row is ∞ at the masked vertex) and M^w_a is
  // pinned to 0, matching R1's zero contribution at coordinate a.
  std::uint64_t base_sum = 0;
  for (Vertex y = 0; y < n; ++y) base_sum += s.min1[y];
  base_sum -= s.min1[a];  // pin M^w_a = 0

  // Static survivor list against the fixed old_cost threshold: skipped
  // candidates satisfy lb ≥ old_cost ≥ every later dynamic threshold, so
  // dropping them up front cannot change any value.
  s.cands.clear();
  const bool can_prune = old_cost < kPruneThresholdCap;
  for (Vertex w2 = 0; w2 < n; ++w2) {
    if (s.is_nbr[w2] != 0) continue;
    if (can_prune && std::uint64_t{n - 1} + base_sum >= old_cost + s.r1[w2]) {
      s.stats.candidates_pruned += s.nbrs.size();
      continue;
    }
    s.cands.push_back(w2);
  }

  for (const Vertex w : s.nbrs) {
    Dist* m = s.mrow.data();
    kern.select_mrow(m, s.min1.data(), s.min2.data(), s.argmin.data(), w, n);
    m[a] = 0;
    for (const Vertex w2 : s.cands) {
      const std::uint64_t threshold = std::min(old_cost, result.best_cost);
      if (threshold < kPruneThresholdCap &&
          std::uint64_t{n - 1} + base_sum >= threshold + s.r1[w2]) {
        // The dynamic re-check of the same lower bound, against the
        // tightened running-best threshold (ties never displace).
        ++s.stats.candidates_pruned;
        continue;
      }
      ++s.stats.candidates_combined;
      const std::uint64_t new_cost = kern.combine_sum(m, rowptr[w2], n, kInf);
      if (new_cost >= old_cost) continue;
      result.found = true;
      result.best_cost = std::min(result.best_cost, new_cost);
    }
  }
  return result;
}

template <typename Dist>
std::uint64_t SearchStateImpl<Dist>::unrest_contribution(const ScanResult& r,
                                                         std::uint64_t old_cost) {
  return r.found ? old_cost - r.best_cost : 0;  // found ⇒ best_cost < old_cost
}

template <typename Dist>
std::uint64_t SearchStateImpl<Dist>::evaluate_pass(bool staged) {
  ensure_slabs();
  ensure_table_slabs();  // allocated up front: the parallel region below must not resize
  const std::size_t full_slab = staged ? 1 - fcur_ : fcur_;
  const Vertex tu = staged_u_;
  const Vertex tv = staged_v_;
  const bool add = staged_add_;
  std::uint64_t total = 0;

  const auto evaluate_agent = [&](Vertex a, Scratch& s) -> std::uint64_t {
    const std::uint64_t old_cost = agent_cost_from_full(full_slab, a);
    ensure_agent_current(a, s);
    if (staged && (a == tu || a == tv)) {
      // The toggled edge is incident to a, where it vanishes under the mask
      // (G'−a = G−a) — but the proposal's neighbor set differs from the one
      // the cached tables were folded over, so rebuild them transiently.
      proposal_neighbors(a, tu, tv, add, staged, s.nbrs);
      prepare_scan(agent_rows(a), s);
    } else if (!staged) {
      ensure_tables(a, s);
      proposal_neighbors(a, tu, tv, add, staged, s.nbrs);
      load_tables(a, s);
      s.rowptr.resize(n_);
      const Dist* rows = agent_rows(a);
      for (Vertex x = 0; x < n_; ++x) {
        s.rowptr[x] = rows + static_cast<std::size_t>(x) * n_;
      }
    } else if (add) {
      ensure_tables(a, s);
      proposal_neighbors(a, tu, tv, add, staged, s.nbrs);
      stream_addition(a, tu, tv, s);
    } else {
      ensure_tables(a, s);
      proposal_neighbors(a, tu, tv, add, staged, s.nbrs);
      stream_removal(a, tu, tv, s);
    }
    if (staged) {
      // The scratch tables describe the staged proposal for this agent;
      // park them in the shadow set so commit() can flip them in as the
      // new current tables without recomputation.
      store_shadow_tables(a, s);
    }
    return unrest_contribution(scan_agent(a, old_cost, s), old_cost);
  };

  ThreadPool& pool = ThreadPool::global();
  if (parallel_ && pool.size() > 1) {
    // One persistent Scratch per pool lane (warm across passes — the n×n
    // proposal slab and BFS workspace survive), one unrest accumulator per
    // lane padded to its own cache line. Lane subtotals and lane stats fold
    // serially in lane order after the drain, replacing the old
    // omp-critical merge: unrest contributions are a commutative sum, so
    // the pass total is lane-count- and schedule-invariant either way, and
    // the serial fold makes the stats order deterministic too.
    //
    // A saturating refresh inside the region (u8 only) must not unwind
    // through the pool: park the signal in a flag, drain the remaining
    // iterations, and rethrow it after the pass — the facade discards this
    // whole state on promotion, so the half-updated caches left behind are
    // never read.
    if (scratch_.size() < pool.size()) scratch_.resize(pool.size());
    struct alignas(64) LaneUnrest {
      std::uint64_t sub = 0;
    };
    std::vector<LaneUnrest> lane(pool.size());
    std::atomic<bool> saturated{false};
    pool.parallel_for(n_, /*grain=*/4, [&](std::uint64_t a, unsigned tid) {
      if (saturated.load(std::memory_order_relaxed)) return;
      try {
        lane[tid].sub += evaluate_agent(static_cast<Vertex>(a), scratch_[tid]);
      } catch (const WidthSaturated&) {
        saturated.store(true, std::memory_order_relaxed);
      }
    });
    for (std::size_t t = 0; t < pool.size(); ++t) {
      total += lane[t].sub;
      merge_stats(scratch_[t]);
    }
    if (saturated.load(std::memory_order_relaxed)) throw WidthSaturated{};
    return total;
  }
  for (Vertex a = 0; a < n_; ++a) total += evaluate_agent(a, scratch_[0]);
  merge_stats(scratch_[0]);
  return total;
}

template <typename Dist>
std::uint64_t SearchStateImpl<Dist>::proposal_unrest() {
  BNCG_REQUIRE(staged_, "proposal_unrest requires a staged toggle");
  if (evaluated_) return staged_unrest_;
  staged_unrest_ = evaluate_pass(/*staged=*/true);
  evaluated_ = true;
  ++stats_.evaluations;
  return staged_unrest_;
}

template <typename Dist>
std::uint64_t SearchStateImpl<Dist>::unrest() {
  if (unrest_) return *unrest_;
  unrest_ = evaluate_pass(/*staged=*/false);
  return *unrest_;
}

template <typename Dist>
void SearchStateImpl<Dist>::commit() {
  BNCG_REQUIRE(staged_ && evaluated_, "commit requires an evaluated staged toggle");
  last_u_ = staged_u_;
  last_v_ = staged_v_;
  last_add_ = staged_add_;
  ++head_;
  fcur_ = 1 - fcur_;
  // The evaluation parked every agent's proposal tables in the shadow set;
  // flipping makes them current. The matrices catch up on the next
  // evaluation (table_version_ runs ahead of version_ until then).
  tcur_ = 1 - tcur_;
  std::fill(table_version_.begin(), table_version_.end(), head_);
  if (staged_add_) {
    graph_.add_edge(staged_u_, staged_v_);
  } else {
    graph_.remove_edge(staged_u_, staged_v_);
  }
  csr_.rebuild(graph_);
  unrest_ = staged_unrest_;
  staged_ = false;
  evaluated_ = false;
  ++stats_.commits;
}

template <typename Dist>
void SearchStateImpl<Dist>::debug_scan_tables(Vertex a, std::vector<Vertex>& min1,
                                              std::vector<Vertex>& min2,
                                              std::vector<Vertex>& argmin,
                                              std::vector<std::uint32_t>& r1) {
  BNCG_REQUIRE(a < n_, "vertex id out of range");
  ensure_slabs();
  Scratch& s = scratch_[0];
  ensure_agent_current(a, s);
  ensure_tables(a, s);
  const Vertex n = n_;
  min1.resize(n);
  min2.resize(n);
  argmin.assign(table_argmin(a), table_argmin(a) + n);
  const Dist* m1 = table_min1(a);
  const Dist* m2 = table_min2(a);
  for (Vertex y = 0; y < n; ++y) {
    min1[y] = m1[y] >= kInf ? kInfDist : m1[y];
    min2[y] = m2[y] >= kInf ? kInfDist : m2[y];
  }
  r1.assign(table_r1(a), table_r1(a) + n);
}

template class SearchStateImpl<std::uint8_t>;
template class SearchStateImpl<std::uint16_t>;

// ---------------------------------------------------------------- facade

SearchState::SearchState(const Graph& g, bool parallel, WidthPolicy width) : parallel_(parallel) {
  const Vertex n = g.num_vertices();
  BNCG_REQUIRE(n >= 1 && n <= kMaxFiniteFor<std::uint16_t> + 1,
               "SearchState requires 1 <= n <= 16382");
  bool try_u8 = width == WidthPolicy::ForceU8;
  if (width == WidthPolicy::Auto) {
    // One BFS screens out instances that certainly do not fit: ecc(0) lower
    // bounds the diameter, and disconnected graphs keep the conservative
    // wide layout (components unseen from vertex 0 stay unbounded). A graph
    // that passes the screen but saturates mid-construction still lands on
    // u16 through the catch below.
    BfsWorkspace ws;
    const BfsResult r = bfs(g, 0, ws);
    try_u8 = r.spans(n) && r.ecc <= kMaxFiniteFor<std::uint8_t>;
  }
  if (try_u8) {
    try {
      impl8_ = std::make_unique<SearchStateImpl<std::uint8_t>>(g, parallel);
    } catch (const WidthSaturated&) {
      impl8_.reset();
    }
  }
  if (!impl8_) {
    impl16_ = std::make_unique<SearchStateImpl<std::uint16_t>>(g, parallel);
    if (try_u8) {
      // The narrow attempt burned and taught us the width — record it like
      // a promotion so stats expose the cap crossing.
      SearchStats s = impl16_->stats();
      s.promotions += 1;
      impl16_->adopt_stats(s);
    }
  }
}

SearchState::~SearchState() = default;

void SearchState::promote() {
  SearchStats carried = impl8_->stats();
  carried.promotions += 1;
  const Graph g = impl8_->graph();
  impl8_.reset();
  impl16_ = std::make_unique<SearchStateImpl<std::uint16_t>>(g, parallel_);
  impl16_->adopt_stats(carried);
  // A toggle staged on the old width is re-staged here so the interrupted
  // proposal_unrest()/commit() sequence resumes exactly where it was; the
  // re-stage is bookkeeping, not a new proposal, so its count is undone.
  if (staged_) {
    (void)impl16_->propose_toggle(staged_u_, staged_v_);
    SearchStats restaged = impl16_->stats();
    restaged.proposals -= 1;
    impl16_->adopt_stats(restaged);
  }
}

template <typename F>
decltype(auto) SearchState::dispatch(F&& f) {
  if (impl8_) {
    try {
      return f(*impl8_);
    } catch (const WidthSaturated&) {
      promote();
    }
  }
  return f(*impl16_);
}

const Graph& SearchState::graph() const noexcept {
  return impl8_ ? impl8_->graph() : impl16_->graph();
}

Vertex SearchState::num_vertices() const noexcept {
  return impl8_ ? impl8_->num_vertices() : impl16_->num_vertices();
}

Vertex SearchState::diameter() const noexcept {
  return impl8_ ? impl8_->diameter() : impl16_->diameter();
}

bool SearchState::connected() const noexcept {
  return impl8_ ? impl8_->connected() : impl16_->connected();
}

DistWidth SearchState::width() const noexcept {
  return impl8_ ? DistWidth::U8 : DistWidth::U16;
}

const SearchStats& SearchState::stats() const noexcept {
  return impl8_ ? impl8_->stats() : impl16_->stats();
}

std::uint64_t SearchState::unrest() {
  return dispatch([](auto& s) { return s.unrest(); });
}

ToggleShape SearchState::propose_toggle(Vertex u, Vertex v) {
  // Cleared first so a promotion *inside* this call does not re-stage the
  // toggle ahead of the retry (the retry stages it itself).
  staged_ = false;
  const ToggleShape shape = dispatch([&](auto& s) { return s.propose_toggle(u, v); });
  staged_ = true;
  staged_u_ = u;
  staged_v_ = v;
  return shape;
}

std::uint64_t SearchState::proposal_unrest() {
  return dispatch([](auto& s) { return s.proposal_unrest(); });
}

void SearchState::commit() {
  dispatch([](auto& s) { s.commit(); });
  staged_ = false;
}

SearchState::ScanTables SearchState::debug_scan_tables(Vertex a) {
  ScanTables t;
  dispatch([&](auto& s) { s.debug_scan_tables(a, t.min1, t.min2, t.argmin, t.r1); });
  return t;
}

}  // namespace bncg
