#include "core/swap_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <map>

#include "util/thread_pool.hpp"

namespace bncg {

namespace {

// The SIMD kernels signal "unreachable somewhere" with their own constant so
// util/ never depends on core/; it must stay bit-identical to kInfCost for
// the cost comparisons below to read kernel results directly.
static_assert(simd::kInfCostResult == kInfCost);

/// Infinity sentinel of the engine's per-width matrices. u16 keeps the full
/// 0xFFFF traversal sentinel (the historical engine encoding); u8 uses the
/// capped kSearchInf8 with finite range 0..kMaxFiniteFor — a sweep that
/// would exceed it saturates and the agent is redone at u16.
template <typename Dist>
constexpr Dist engine_inf() {
  if constexpr (std::is_same_v<Dist, std::uint8_t>) {
    return kSearchInf8;
  } else {
    return kInfDist16;
  }
}

template <typename Dist>
constexpr Dist engine_max_finite() {
  if constexpr (std::is_same_v<Dist, std::uint8_t>) {
    return kMaxFiniteFor<std::uint8_t>;
  } else {
    return static_cast<std::uint16_t>(kInfDist16 - 1);
  }
}

// The combine reductions ((n−1) + Σ_u min(m_u, c_u), 1 + max_u min(m_u, c_u),
// 1 + max_u m_u) and the scan-table maintenance loops now live in
// util/simd.hpp as runtime-dispatched kernels; simd::kernels<Dist>() below
// replaces the former local templates with bit-identical semantics.

constexpr std::size_t words_for(std::uint32_t bits) {
  return (static_cast<std::size_t>(bits) + 63) / 64;
}

/// The word with bits 0..count−1 set (count ≤ 64).
constexpr std::uint64_t low_bits(std::size_t count) {
  return count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
}

/// Coverage masks of one cover instance, scored from cached symmetric
/// all-pairs rows: candidate w covers far element idx iff
/// rows[far[idx]][w] < cap (i.e. d(w, far[idx]) + 2 ≤ ecc with
/// cap = ecc − 1). One collect_below per far vertex builds the masks
/// column-sparse; the w-ascending harvest then reproduces the oracle's set
/// order, empty-mask skipping, and (for insertions) its first-label dedup —
/// so cover_select sees byte-identical instances. The via-v path a real
/// insertion also offers can be ignored here: for far x it is ≥ ecc + 1
/// long, which never meets the ≤ ecc − 2 cover condition (DESIGN.md §14),
/// which is why masked and full-graph rows agree on every mask bit.
///
/// `budget` is the counting bound: `budget` sets cover at most
/// budget · max|set| far vertices, so when far_count exceeds that product no
/// cover exists and the harvest/dedup phase (the dominant cost on instances
/// like stars, where every candidate set is a singleton but the far sphere is
/// n − 2) is skipped entirely, leaving `sets` empty. The bound changes no
/// verdict — uncoverable means stable, and stable carries no witness — and
/// max|set| is read straight off the wmask popcounts, so triggering it costs
/// one word scan. The largest set size is always reported via `max_set_out`
/// so callers probing several k values can reapply the bound per k.
template <typename Dist>
void build_cover_sets(const Dist* rows, Vertex n, Vertex v, const Vertex* far,
                      std::uint32_t far_count, std::int32_t cap, bool dedup,
                      std::uint64_t budget, std::uint32_t* max_set_out,
                      AlignedVec<Vertex>& hits, std::vector<std::uint64_t>& wmask,
                      std::vector<std::vector<std::uint64_t>>& sets, std::vector<Vertex>& labels) {
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const std::size_t words = words_for(far_count);
  wmask.assign(static_cast<std::size_t>(n) * words, 0);
  hits.resize(n);
  for (std::uint32_t idx = 0; idx < far_count; ++idx) {
    const Dist* row = rows + static_cast<std::size_t>(far[idx]) * n;
    const std::uint32_t count = kern.collect_below(row, n, cap, /*skip=*/v, hits.data());
    for (std::uint32_t i = 0; i < count; ++i) {
      wmask[static_cast<std::size_t>(hits[i]) * words + idx / 64] |= std::uint64_t{1}
                                                                    << (idx % 64);
    }
  }
  std::uint32_t max_set = 0;
  for (Vertex w = 0; w < n; ++w) {
    if (w == v) continue;
    const std::uint64_t* src = wmask.data() + static_cast<std::size_t>(w) * words;
    std::uint32_t size = 0;
    for (std::size_t j = 0; j < words; ++j) {
      size += static_cast<std::uint32_t>(std::popcount(src[j]));
    }
    max_set = std::max(max_set, size);
  }
  if (max_set_out != nullptr) *max_set_out = max_set;
  sets.clear();
  labels.clear();
  if (std::uint64_t{far_count} > budget * std::uint64_t{max_set}) return;
  std::map<std::vector<std::uint64_t>, bool> seen;
  std::vector<std::uint64_t> mask(words);
  for (Vertex w = 0; w < n; ++w) {
    if (w == v) continue;
    const std::uint64_t* src = wmask.data() + static_cast<std::size_t>(w) * words;
    bool nonempty = false;
    for (std::size_t j = 0; j < words; ++j) {
      mask[j] = src[j];
      nonempty |= src[j] != 0;
    }
    if (!nonempty) continue;
    if (dedup) {
      if (auto [it, inserted] = seen.emplace(mask, true); !inserted) continue;
    }
    sets.push_back(mask);
    labels.push_back(w);
  }
}

/// Sum combine of a candidate row `c` read from the unmasked slab,
/// corrected to the masked row by that row's repair patches (DESIGN.md
/// §17): masking only lengthens entries, so only patched terms move, and
/// the uint32 wraparound accumulator of combine_sum carries the deltas
/// bit-exactly. ∞ stays ∞; a patched term reaching ∞ makes the sum ∞.
template <typename Dist>
std::uint64_t patched_sum(std::uint64_t base, const Dist* m, const Dist* c,
                          std::span<const MaskedPatch<Dist>> patches, Vertex n, Dist inf) {
  if (base == kInfCost || patches.empty()) return base;
  std::uint32_t sum = static_cast<std::uint32_t>(base - (n - 1));
  for (const MaskedPatch<Dist>& p : patches) {
    const Dist now = std::min(m[p.u], p.d);
    if (now >= inf) return kInfCost;
    sum += std::uint32_t{now} - std::uint32_t{std::min(m[p.u], c[p.u])};
  }
  return std::uint64_t{sum} + (n - 1);
}

/// Max combine twin of patched_sum: every unpatched term is unchanged and
/// every patched term only grew, so the masked max is the larger of the
/// unmasked max and the patched terms.
template <typename Dist>
std::uint64_t patched_max(std::uint64_t base, const Dist* m,
                          std::span<const MaskedPatch<Dist>> patches, Dist inf) {
  if (base == kInfCost) return base;
  std::uint64_t worst = base - 1;
  for (const MaskedPatch<Dist>& p : patches) {
    const Dist now = std::min(m[p.u], p.d);
    if (now >= inf) return kInfCost;
    worst = std::max<std::uint64_t>(worst, now);
  }
  return worst + 1;
}

}  // namespace

RowCacheStats SwapEngine::Scratch::row_cache_stats() const {
  const RowCacheStats& a = rows8_.provider.cache_stats();
  const RowCacheStats& b = rows16_.provider.cache_stats();
  RowCacheStats out;
  out.hits = a.hits + b.hits;
  out.misses = a.misses + b.misses;
  out.evictions = a.evictions + b.evictions;
  out.contexts = a.contexts + b.contexts;
  out.peak_bytes = a.peak_bytes + b.peak_bytes;
  return out;
}

bool force_naive_requested() {
  static const bool forced_naive = [] {
    const char* env = std::getenv("BNCG_FORCE_NAIVE");
    return env != nullptr && *env != '\0' && *env != '0';
  }();
  return forced_naive;
}

bool swap_engine_enabled(const Graph& g) {
  return !force_naive_requested() && g.num_vertices() <= kSwapEngineAutoMaxVertices;
}

void SwapEngine::rebuild(const Graph& g, WidthPolicy width) {
  resources_.width = width;
  rebuild(g);
}

void SwapEngine::rebuild(const Graph& g, const ResourceConfig& resources) {
  resources_ = resources;
  rebuild(g);
}

void SwapEngine::rebuild(const Graph& g) {
  csr_.rebuild(g);
  width_fallbacks_.store(0, std::memory_order_relaxed);
  shared8_.reset();
  shared16_.reset();
  prefer_u8_ = false;
  const Vertex n = csr_.num_vertices();
  // One policy object per snapshot: the width-preference probe (formerly an
  // in-engine csr_bfs, now budget-aware and n-unbounded) plus the per-width
  // dense-vs-budgeted storage decision under the per-lane budget share.
  // Instances at n ≥ 65535 — beyond the dense scan's 16-bit encoding — are
  // accepted here and always run budgeted.
  budget_policy_ = WidthAndBudgetPolicy(resources_);
  if (n == 0) return;
  prefer_u8_ = budget_policy_.probe_prefers_u8(csr_, scratch_.bfs_);
}

std::uint64_t SwapEngine::agent_cost(Vertex v, UsageCost model, Scratch& s) const {
  const Vertex n = csr_.num_vertices();
  BNCG_REQUIRE(v < n, "vertex id out of range");
  BNCG_REQUIRE(n < kInfDist16,
               "agent_cost is a dense-path query (n < 65535); budgeted scans derive costs "
               "from the neighbor min-fold instead");
  s.base_.resize(n);
  const BfsResult r = csr_bfs(csr_, v, MaskedEdge{}, s.base_.data(), s.bfs_);
  if (!r.spans(n)) return kInfCost;
  return model == UsageCost::Sum ? r.dist_sum : r.ecc;
}

template <typename Dist>
bool SwapEngine::scan_agent_t(Vertex v, UsageCost model, bool stop_at_first,
                              bool include_deletions, std::uint64_t* moves_checked,
                              const Dist* slab, Scratch& s, std::optional<Deviation>& out) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  BNCG_REQUIRE(v < n, "vertex id out of range");
  const std::size_t stride = n;

  // The agent's current cost is row v of the shared slab: d_G(v, ·).
  std::uint32_t row_sum = 0;
  Dist ecc = 0;
  kern.row_sum_max(slab + v * stride, n, &row_sum, &ecc);
  const std::uint64_t old_cost =
      ecc >= kInf ? kInfCost : (model == UsageCost::Sum ? std::uint64_t{row_sum} : ecc);

  const auto nbrs = csr_.neighbors(v);
  out.reset();
  if (nbrs.empty()) return true;

  // Closed-neighborhood marks: candidates w₂ must be fresh edges (swapping
  // onto an existing edge is a deletion and never improves either model).
  s.is_nbr_.assign(n, 0);
  s.is_nbr_[v] = 1;
  for (const Vertex w : nbrs) s.is_nbr_[w] = 1;

  // The agent's only traversal bill: repair the masked rows of G − v as
  // sparse patches over the shared slab. A repaired distance beyond the
  // width means this agent does not fit — bail so the dispatcher redoes it
  // at u16.
  auto& rows = s.rows<Dist>();
  MaskedRowRepair<Dist>& repair = rows.repair;
  if (!repair.run(csr_, slab, v, kInf, engine_max_finite<Dist>())) return false;

  // Elementwise min / argmin / second-min over the masked neighbor rows —
  // the only rows materialized, one at a time — so each removed edge's
  // kept-neighbor profile M^w is an O(n) select.
  rows.min1.assign(n, kInf);
  rows.min2.assign(n, kInf);
  s.argmin_.assign(n, kNoVertex);
  rows.arow.resize(n);
  for (const Vertex z : nbrs) {
    repair.materialize(z, rows.arow.data());
    kern.scan_min_update(rows.min1.data(), rows.min2.data(), s.argmin_.data(), rows.arow.data(),
                         z, n);
  }
  rows.mrow.resize(n);
  s.far_.resize(n);
  s.far_mark_.assign(n, 0);

  std::optional<Deviation> best;
  for (const Vertex w : nbrs) {
    // M^w_u = min_{z ∈ N(v)∖{w}} d_{G−v}(z, u); the v entry is pinned to 0
    // so whole-row combines need no special case for u = v — which is also
    // why the slab's finite column v never shows in a combine.
    Dist* m = rows.mrow.data();
    kern.select_mrow(m, rows.min1.data(), rows.min2.data(), s.argmin_.data(), w, n);
    m[v] = 0;

    if (model == UsageCost::Max && include_deletions) {
      // Deletion clause: removing {v, w} must *strictly* increase v's local
      // diameter; 1 + M^w is exactly the post-deletion distance profile.
      if (moves_checked != nullptr) ++*moves_checked;
      const std::uint64_t del_cost = kern.deletion_ecc(m, n, kInf);
      if (del_cost <= old_cost) {
        const Deviation dev{{v, w, w}, old_cost, del_cost, Deviation::Kind::NonCriticalDelete};
        if (!best || dev.cost_after < best->cost_after) best = dev;
        if (stop_at_first) {
          out = best;
          return true;
        }
      }
    }

    if (model == UsageCost::Sum) {
      for (Vertex w2 = 0; w2 < n; ++w2) {
        if (s.is_nbr_[w2] != 0) continue;
        if (moves_checked != nullptr) ++*moves_checked;
        const Dist* c = slab + w2 * stride;
        const std::uint64_t new_cost =
            patched_sum(kern.combine_sum(m, c, n, kInf), m, c, repair.patches(w2), n, kInf);
        if (new_cost >= old_cost) continue;
        if (!best || new_cost < best->cost_after) {
          best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
          if (stop_at_first) {
            out = best;
            return true;
          }
        }
      }
    } else {
      // Far set of the removed edge: vertices the kept neighbors do not
      // already serve within old_cost − 1. The swap improves iff candidate
      // w₂ covers the whole far set within old_cost − 2 (reads "repair
      // connectivity" when old_cost = ∞). cap is signed: old_cost = 1 makes
      // improvement impossible and the far test rejects everything.
      const std::int32_t cap =
          old_cost == kInfCost ? std::int32_t{kInf} - 1 : static_cast<std::int32_t>(old_cost) - 2;
      const std::uint32_t far_count = kern.collect_above(m, n, cap, /*skip=*/v, s.far_.data());
      for (std::uint32_t i = 0; i < far_count; ++i) s.far_mark_[s.far_[i]] = 1;
      for (Vertex w2 = 0; w2 < n; ++w2) {
        if (s.is_nbr_[w2] != 0) continue;
        if (moves_checked != nullptr) ++*moves_checked;
        // Masking only lengthens distances, so an unmasked far entry above
        // cap already rejects; survivors then check the patched far entries.
        const Dist* c = slab + w2 * stride;
        const auto patches = repair.patches(w2);
        bool improves = true;
        for (std::uint32_t i = 0; i < far_count && improves; ++i) {
          improves = c[s.far_[i]] <= cap;
        }
        for (std::size_t i = 0; i < patches.size() && improves; ++i) {
          improves = s.far_mark_[patches[i].u] == 0 || patches[i].d <= cap;
        }
        if (!improves) continue;
        const std::uint64_t new_cost =
            patched_max(kern.combine_max(m, c, n, kInf), m, patches, kInf);
        if (!best || new_cost < best->cost_after ||
            (best->kind == Deviation::Kind::NonCriticalDelete &&
             new_cost <= best->cost_after)) {
          best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
          if (stop_at_first) {
            out = best;
            return true;
          }
        }
      }
      for (std::uint32_t i = 0; i < far_count; ++i) s.far_mark_[s.far_[i]] = 0;
    }
  }
  out = best;
  return true;
}

template <typename Dist>
bool SwapEngine::scan_agent_budgeted_t(Vertex v, UsageCost model, bool stop_at_first,
                                       bool include_deletions, std::uint64_t* moves_checked,
                                       Scratch& s, std::optional<Deviation>& out) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  BNCG_REQUIRE(v < n, "vertex id out of range");

  const auto nbrs = csr_.neighbors(v);
  out.reset();
  if (nbrs.empty()) return true;

  s.is_nbr_.assign(n, 0);
  s.is_nbr_[v] = 1;
  for (const Vertex w : nbrs) s.is_nbr_[w] = 1;
  // Candidates per removed edge — the bulk move-count term of the max
  // model, where every candidate is "checked" by the far filter whether or
  // not its row ever materializes.
  std::uint64_t candidate_count = 0;
  for (Vertex x = 0; x < n; ++x) candidate_count += s.is_nbr_[x] == 0 ? 1 : 0;

  auto& rows = s.rows<Dist>();
  auto& provider = rows.provider;
  provider.begin(csr_, /*masked_vertex=*/v, kInf, engine_max_finite<Dist>(),
                 budget_policy_.lane_budget());

  // Neighbor min-fold, one row at a time: prefetch batches ≤ 64 neighbor
  // rows per traversal; each row is folded once and may be evicted freely
  // afterwards. This is the only stage that materializes rows
  // unconditionally — everything below is filtered or pruned first.
  rows.min1.assign(n, kInf);
  rows.min2.assign(n, kInf);
  s.argmin_.assign(n, kNoVertex);
  for (std::size_t i = 0; i < nbrs.size(); i += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, nbrs.size() - i);
    const std::span<const Vertex> group(nbrs.data() + i, chunk);
    if (!provider.prefetch(group, s.bfs_)) return false;
    for (const Vertex z : group) {
      const Dist* row = provider.row(z, s.bfs_);
      if (row == nullptr) return false;
      kern.scan_min_update(rows.min1.data(), rows.min2.data(), s.argmin_.data(), row, z, n);
    }
  }

  // The agent's current cost derives from the fold it already paid for:
  // with min1[v] pinned to 0, 1 + min1 is exactly d_G(v, ·) (source-removal
  // identity at N' = N(v)), so ecc and Σ fall out of the combine kernels —
  // no unmasked BFS, which at budgeted scale would be a third traversal
  // family. Pinning min1[v] itself is safe: argmin_[v] stays kNoVertex (no
  // masked row reaches v), so select_mrow below copies the pinned 0 into
  // every M^w exactly where the dense scan pins m[v] after the select.
  rows.min1[v] = 0;
  const std::uint64_t old_cost =
      model == UsageCost::Sum
          ? kern.combine_sum(rows.min1.data(), rows.min1.data(), n, kInf)
          : kern.deletion_ecc(rows.min1.data(), n, kInf);

  rows.mrow.resize(n);
  // Max model: a swap improves iff the candidate reaches the removed edge's
  // far set within cap (DESIGN.md §4). cap is signed: old_cost = 1 makes
  // improvement impossible (and leaves no candidate to test).
  const std::int32_t cap =
      old_cost == kInfCost ? std::int32_t{kInf} - 1 : static_cast<std::int32_t>(old_cost) - 2;
  std::uint64_t saturated_edges = 0;  // far sets of the current edge group holding a
                                      // width-saturating vertex, one bit per edge

  std::optional<Deviation> best;
  for (std::size_t e = 0; e < nbrs.size(); ++e) {
    const Vertex w = nbrs[e];
    Dist* m = rows.mrow.data();
    kern.select_mrow(m, rows.min1.data(), rows.min2.data(), s.argmin_.data(), w, n);
    m[v] = 0;

    if (model == UsageCost::Max && include_deletions) {
      if (moves_checked != nullptr) ++*moves_checked;
      const std::uint64_t del_cost = kern.deletion_ecc(m, n, kInf);
      if (del_cost <= old_cost) {
        const Deviation dev{{v, w, w}, old_cost, del_cost, Deviation::Kind::NonCriticalDelete};
        if (!best || dev.cost_after < best->cost_after) best = dev;
        if (stop_at_first) {
          out = best;
          return true;
        }
      }
    }

    if (model == UsageCost::Sum) {
      // Σ-prune: for any candidate w₂ with A = M^w_{w₂} finite, the kept
      // neighbor z* attaining A gives m_u ≤ A + c_u for every u (triangle
      // through w₂), so min(m_u, c_u) ≥ m_u − A and
      //   cost'(v) ≥ combine_sum(M^w, M^w) − n·A.
      // When that bound already meets old_cost the dense scan would have
      // computed cost' and continued — prune without materializing the row.
      // A = ∞ (w₂ outside the kept component) can still repair
      // connectivity, so it always evaluates; Σ M^w = ∞ with A finite means
      // some u is unreachable from w₂ too, so cost' = ∞ — always prune.
      const std::uint64_t mm = kern.combine_sum(m, m, n, kInf);
      for (Vertex w2 = 0; w2 < n; ++w2) {
        if (s.is_nbr_[w2] != 0) continue;
        if (moves_checked != nullptr) ++*moves_checked;
        const std::uint64_t a = m[w2];
        if (a < kInf) {
          if (mm == kInfCost) continue;
          if (old_cost != kInfCost && mm >= old_cost + std::uint64_t{n} * a) continue;
        }
        const Dist* c = provider.row(w2, s.bfs_);
        if (c == nullptr) return false;
        const std::uint64_t new_cost = kern.combine_sum(m, c, n, kInf);
        if (new_cost >= old_cost) continue;
        if (!best || new_cost < best->cost_after) {
          best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
          if (stop_at_first) {
            out = best;
            return true;
          }
        }
      }
    } else {
      // Reach far filter (DESIGN.md §16): survivors are the candidates that
      // reach the whole far set {u ≠ v : M^w_u > cap} within cap — the same
      // ascending list the dense scan's far test accepts. Reach words come
      // per group of ≤ 64 removed edges, one traversal per ≤ 64 vertices of
      // the group's union far set, and survivors are *proven* improvers
      // (cost' ≤ cap + 1 < old_cost), so only their rows ever materialize.
      if (moves_checked != nullptr) *moves_checked += candidate_count;
      if (candidate_count == 0) continue;
      const std::size_t bit = e % 64;
      if (bit == 0) {
        saturated_edges =
            reach_filter_t<Dist>(v, e, std::min<std::size_t>(64, nbrs.size() - e), cap, s);
      }
      // A far vertex whose masked row saturates the width sends the agent
      // to u16 (DESIGN.md §16).
      if ((saturated_edges >> bit & 1) != 0) return false;
      for (Vertex w2 = 0; w2 < n; ++w2) {
        if ((s.alive_[w2] >> bit & 1) == 0) continue;
        const Dist* c = provider.row(w2, s.bfs_);
        if (c == nullptr) return false;
        const std::uint64_t new_cost = kern.combine_max(m, c, n, kInf);
        if (!best || new_cost < best->cost_after ||
            (best->kind == Deviation::Kind::NonCriticalDelete &&
             new_cost <= best->cost_after)) {
          best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
          if (stop_at_first) {
            // The dense scan stops mid-enumeration, counting only the
            // candidates up to this w₂ — take back the bulk add for the
            // ones after it.
            if (moves_checked != nullptr) {
              std::uint64_t up_to = 0;
              for (Vertex x = 0; x <= w2; ++x) up_to += s.is_nbr_[x] == 0 ? 1 : 0;
              *moves_checked -= candidate_count - up_to;
            }
            out = best;
            return true;
          }
        }
      }
    }
  }
  out = best;
  return true;
}

template <typename Dist>
std::uint64_t SwapEngine::reach_filter_t(Vertex v, std::size_t first, std::size_t count,
                                         std::int32_t cap, Scratch& s) const {
  const Vertex n = csr_.num_vertices();
  const auto group = csr_.neighbors(v).subspan(first, count);
  const auto& rows = s.rows<Dist>();
  const Dist* min1 = rows.min1.data();
  const Vertex* argmin = s.argmin_.data();
  // M^w_u is min2[u] for u's argmin neighbor w and min1[u] for the others,
  // so the union far set is U = {u ≠ v : min2[u] > cap}: a member with
  // min1[u] > cap is far for every removed edge, any other only for its
  // argmin edge. The group's members are those far for one of its edges.
  const auto universal = [&](Vertex u) { return static_cast<std::int32_t>(min1[u]) > cap; };
  s.far_.resize(n);
  Vertex* far = s.far_.data();
  const std::uint32_t far_count =
      simd::kernels<Dist>().collect_above(rows.min2.data(), n, cap, /*skip=*/v, far);
  std::uint32_t members = 0;
  for (std::uint32_t i = 0; i < far_count; ++i) {
    const Vertex u = far[i];
    if (universal(u) || (argmin[u] >= group.front() && argmin[u] <= group.back())) {
      far[members++] = u;
    }
  }

  const std::uint64_t group_bits = low_bits(count);
  s.alive_.resize(n);
  for (Vertex x = 0; x < n; ++x) s.alive_[x] = s.is_nbr_[x] != 0 ? 0 : group_bits;
  s.masks_.resize(n);
  std::uint64_t* reach = s.masks_.data();
  std::uint64_t saturated_edges = 0;
  std::array<std::uint64_t, 64> private_bits{};  // per group edge: its chunk members
  std::array<std::uint32_t, 64> edges{};          // group edges with chunk members
  for (std::uint32_t base = 0; base < members; base += 64) {
    const std::uint32_t chunk = std::min<std::uint32_t>(64, members - base);
    const std::uint64_t saturated = bfs_batch_reach(
        csr_, std::span<const Vertex>(far + base, chunk), v, cap, engine_max_finite<Dist>(),
        reach, s.bfs_);
    ++s.reach_traversals_;
    std::uint64_t universal_bits = 0;
    std::size_t edge_count = 0;
    for (std::uint32_t i = 0; i < chunk; ++i) {
      const Vertex u = far[base + i];
      if (universal(u)) {
        universal_bits |= std::uint64_t{1} << i;
        continue;
      }
      const auto e = static_cast<std::uint32_t>(
          std::lower_bound(group.begin(), group.end(), argmin[u]) - group.begin());
      if (private_bits[e] == 0) edges[edge_count++] = e;
      private_bits[e] |= std::uint64_t{1} << i;
    }
    const std::span<const std::uint32_t> chunk_edges(edges.data(), edge_count);
    if ((saturated & universal_bits) != 0) saturated_edges = group_bits;
    for (const std::uint32_t e : chunk_edges) {
      if ((saturated & private_bits[e]) != 0) saturated_edges |= std::uint64_t{1} << e;
    }
    for (Vertex x = 0; x < n; ++x) {
      std::uint64_t alive = s.alive_[x];
      if (alive == 0) continue;
      if ((reach[x] & universal_bits) != universal_bits) {
        alive = 0;
      } else {
        for (const std::uint32_t e : chunk_edges) {
          if ((reach[x] & private_bits[e]) != private_bits[e]) alive &= ~(std::uint64_t{1} << e);
        }
      }
      s.alive_[x] = alive;
    }
    for (const std::uint32_t e : chunk_edges) private_bits[e] = 0;
  }
  return saturated_edges;
}

template <typename Dist>
const Dist* SwapEngine::shared_rows() const {
  SharedRows<Dist>& sh = shared<Dist>();
  std::uint8_t state = sh.state.load(std::memory_order_acquire);
  if (state == SharedRows<Dist>::kUnbuilt) {
    const std::lock_guard<std::mutex> lock(sh.mutex);
    state = sh.state.load(std::memory_order_relaxed);
    if (state == SharedRows<Dist>::kUnbuilt) {
      const Vertex n = csr_.num_vertices();
      BNCG_REQUIRE(n < kInfDist16,
                   "the shared unmasked slab is dense-only (n < 65535); budgeted scans "
                   "never build it");
      const std::size_t stride = n;
      sh.rows.resize(stride * n);
      const bool fits = build_unmasked_slab<Dist>(csr_, sh.rows.data(), engine_inf<Dist>(),
                                                  engine_max_finite<Dist>());
      if (!fits) AlignedVec<Dist>().swap(sh.rows);
      if constexpr (std::is_same_v<Dist, std::uint16_t>) {
        // Only a u8-preferring engine whose u8 slab saturated scans every
        // agent here and decides its fallback by counting (masked_exceeds_u8).
        if (shared8_.state.load(std::memory_order_relaxed) ==
            SharedRows<std::uint8_t>::kSaturated) {
          sh.over_u8.assign(n, 0);
          for (Vertex x = 0; x < n; ++x) {
            const std::uint16_t* row = sh.rows.data() + x * stride;
            for (Vertex u = 0; u < n; ++u) {
              sh.over_u8[x] += row[u] > kMaxFiniteFor<std::uint8_t> && row[u] < kInfDist16 ? 1 : 0;
            }
            sh.over_u8_total += sh.over_u8[x];
          }
        }
      }
      state = fits ? SharedRows<Dist>::kReady : SharedRows<Dist>::kSaturated;
      sh.state.store(state, std::memory_order_release);
    }
  }
  return state == SharedRows<Dist>::kReady ? sh.rows.data() : nullptr;
}

void SwapEngine::build_shared_rows() const {
  const Vertex n = csr_.num_vertices();
  if (n == 0) return;
  if (prefer_u8_ && budget_policy_.dense_fits(n, DistWidth::U8) &&
      shared_rows<std::uint8_t>() != nullptr) {
    return;
  }
  if (budget_policy_.dense_fits(n, DistWidth::U16)) (void)shared_rows<std::uint16_t>();
}

bool SwapEngine::masked_exceeds_u8(Vertex v, const Scratch& s) const {
  constexpr std::uint16_t kCap8 = kMaxFiniteFor<std::uint8_t>;
  const MaskedRowRepair<std::uint16_t>& repair = s.rows16_.repair;
  if (repair.max_finite_patch() > kCap8) return true;
  // Unpatched entries keep their unmasked value, and a patched entry only
  // grows, so the over-cap entries of G − v are the finite patches above
  // the cap (none, by now) plus the unmasked over-cap entries off v's row
  // and column that masking did not cut off.
  const SharedRows<std::uint16_t>& sh = shared16_;
  const Vertex n = csr_.num_vertices();
  BNCG_REQUIRE(sh.over_u8.size() == n, "u16 slab built without its over-cap counts");
  const std::uint16_t* slab = sh.rows.data();
  std::uint64_t cut = 0;
  for (Vertex x = 0; x < n; ++x) {
    for (const MaskedPatch<std::uint16_t>& p : repair.patches(x)) {
      if (p.d == kInfDist16 && slab[static_cast<std::size_t>(x) * n + p.u] > kCap8) ++cut;
    }
  }
  return sh.over_u8_total - 2 * std::uint64_t{sh.over_u8[v]} > cut;
}

std::optional<Deviation> SwapEngine::scan_agent(Vertex v, UsageCost model, bool stop_at_first,
                                                bool include_deletions,
                                                std::uint64_t* moves_checked,
                                                Scratch& s) const {
  const Vertex n = csr_.num_vertices();
  std::optional<Deviation> out;
  // u8 preferred but the u8 slab itself saturates: every agent scans at
  // u16, and the fallback count follows the masked-matrix rule instead.
  bool u8_slab_saturated = false;
  if (prefer_u8_) {
    // Run the narrow scan against a local move counter so a saturating
    // scan leaves the caller's count untouched — the u16 redo recounts the
    // identical scan order, keeping move counts width-independent.
    std::uint64_t narrow_moves = 0;
    std::uint64_t* narrow = moves_checked != nullptr ? &narrow_moves : nullptr;
    bool ok = false;
    if (!budget_policy_.dense_fits(n, DistWidth::U8)) {
      ok = scan_agent_budgeted_t<std::uint8_t>(v, model, stop_at_first, include_deletions, narrow,
                                               s, out);
    } else if (const std::uint8_t* slab = shared_rows<std::uint8_t>()) {
      ok = scan_agent_t<std::uint8_t>(v, model, stop_at_first, include_deletions, narrow, slab, s,
                                      out);
    } else {
      u8_slab_saturated = true;
    }
    if (ok) {
      if (moves_checked != nullptr) *moves_checked += narrow_moves;
      return out;
    }
    if (!u8_slab_saturated) width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  if (budget_policy_.dense_fits(n, DistWidth::U16)) {
    // Dense u16 cannot saturate under its n < 65535 gate.
    (void)scan_agent_t<std::uint16_t>(v, model, stop_at_first, include_deletions, moves_checked,
                                      shared_rows<std::uint16_t>(), s, out);
    // An isolated agent has no masked rows to repair; like every scan it
    // never falls back.
    if (u8_slab_saturated && csr_.degree(v) > 0 && masked_exceeds_u8(v, s)) {
      width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // Without a u16 slab the masked-matrix rule cannot be evaluated: count
    // the agent as a fallback.
    if (u8_slab_saturated) width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    // Budgeted u16 CAN saturate — a masked diameter beyond 65534 — and
    // there is no wider storage to fall back to.
    BNCG_REQUIRE(scan_agent_budgeted_t<std::uint16_t>(v, model, stop_at_first, include_deletions,
                                                      moves_checked, s, out),
                 "budgeted u16 scan saturated: some masked distance exceeds the 16-bit "
                 "encoding; this instance is beyond the engine's distance range");
  }
  return out;
}

std::optional<Deviation> SwapEngine::best_deviation(Vertex v, UsageCost model, Scratch& scratch,
                                                    bool include_deletions,
                                                    std::uint64_t* moves_checked) const {
  return scan_agent(v, model, /*stop_at_first=*/false, include_deletions, moves_checked, scratch);
}

std::optional<Deviation> SwapEngine::first_deviation(Vertex v, UsageCost model, Scratch& scratch,
                                                     bool include_deletions,
                                                     std::uint64_t* moves_checked) const {
  return scan_agent(v, model, /*stop_at_first=*/true, include_deletions, moves_checked, scratch);
}

std::optional<Deviation> SwapEngine::best_deviation(Vertex v, UsageCost model,
                                                    bool include_deletions) {
  return best_deviation(v, model, scratch_, include_deletions);
}

std::optional<Deviation> SwapEngine::first_deviation(Vertex v, UsageCost model,
                                                     bool include_deletions) {
  return first_deviation(v, model, scratch_, include_deletions);
}

EquilibriumCertificate SwapEngine::certify(UsageCost model, bool include_deletions) const {
  const Vertex n = csr_.num_vertices();
  EquilibriumCertificate cert;
  std::uint64_t moves = 0;

  // Per-agent results land in a vector and are folded serially afterwards,
  // so the witness tie-break (earliest agent among equal cost_after) matches
  // the serial naive certifiers under any lane count — a parallel reduction
  // would pick among ties in thread-arrival order. Move counts are per-lane
  // slots (cache-line padded: they are bumped per candidate) summed in lane
  // order; sums commute, so the fold order is cosmetic there.
  std::vector<std::optional<Deviation>> per_agent(n);
  ThreadPool& pool = ThreadPool::global();
  struct alignas(64) LaneCount {
    std::uint64_t moves = 0;
  };
  std::vector<LaneCount> lane_moves(pool.size());
  build_shared_rows();
  {
    std::vector<Scratch> scratch(pool.size());
    pool.parallel_for(n, 1, [&](std::uint64_t v, unsigned tid) {
      per_agent[v] = best_deviation(static_cast<Vertex>(v), model, scratch[tid],
                                    include_deletions, &lane_moves[tid].moves);
    });
  }
  for (const LaneCount& lane : lane_moves) moves += lane.moves;

  std::optional<Deviation> best;
  for (Vertex v = 0; v < n; ++v) {
    const auto& dev = per_agent[v];
    if (dev && (!best || dev->cost_after < best->cost_after)) best = dev;
  }

  cert.moves_checked = moves;
  cert.witness = best;
  cert.is_equilibrium = !best.has_value();
  return cert;
}

// --------------------------------------------------- k-move deviation paths

template <typename Dist>
void SwapEngine::insertion_report_t(const Dist* apsp, Vertex v, Vertex k_lo, Vertex k_hi,
                                    Scratch& s, KStabilityReport& out, Vertex* tolerated) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  out = KStabilityReport{};
  out.witness_vertex = v;
  if (tolerated != nullptr) *tolerated = k_hi;

  const Dist* row_v = apsp + static_cast<std::size_t>(v) * n;
  std::uint32_t row_sum = 0;
  Dist ecc = 0;
  kern.row_sum_max(row_v, n, &row_sum, &ecc);
  BNCG_REQUIRE(ecc < kInf, "k-stability analysis requires a connected graph");
  if (ecc <= 1 || k_hi == 0) return;

  // Far sphere: ecc is the row max, so "above ecc − 1" is exactly "== ecc".
  s.far_.resize(n);
  const std::int32_t cap = static_cast<std::int32_t>(ecc) - 1;
  const std::uint32_t far_count = kern.collect_above(row_v, n, cap, /*skip=*/v, s.far_.data());

  // The counting bound (see build_cover_sets) is probed at the largest k in
  // the requested range: when even k_hi sets cannot cover the far sphere the
  // harvest is skipped and every k below inherits the verdict via the same
  // bound in the per-k loop. The naive oracle deliberately keeps the plain
  // search, so the suites certify the bound changes no verdict.
  std::vector<std::vector<std::uint64_t>> sets;
  std::vector<Vertex> labels;
  std::uint32_t max_set = 0;
  build_cover_sets(apsp, n, v, s.far_.data(), far_count, cap, /*dedup=*/true,
                   /*budget=*/k_hi, &max_set, s.hits_, s.masks_, sets, labels);

  for (Vertex k = std::max<Vertex>(k_lo, 1); k <= k_hi; ++k) {
    if (std::uint64_t{far_count} > std::uint64_t{k} * max_set) continue;
    if (const auto selection = cover_select(far_count, sets, k)) {
      out.stable = false;
      for (const std::size_t c : *selection) out.witness_endpoints.push_back(labels[c]);
      if (tolerated != nullptr) *tolerated = k - 1;
      return;
    }
  }
}

KStabilityReport SwapEngine::insertion_stability_at(Vertex v, Vertex k, Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  KStabilityReport out;
  if (prefer_u8_) {
    if (const std::uint8_t* slab = shared_rows<std::uint8_t>()) {
      insertion_report_t<std::uint8_t>(slab, v, k, k, s, out, nullptr);
      return out;
    }
    width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  // u16 distances cannot saturate (n < 65535).
  insertion_report_t<std::uint16_t>(shared_rows<std::uint16_t>(), v, k, k, s, out, nullptr);
  return out;
}

Vertex SwapEngine::max_tolerated_insertions(Vertex v, Vertex k_max, Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  KStabilityReport out;
  Vertex tolerated = k_max;
  if (prefer_u8_) {
    if (const std::uint8_t* slab = shared_rows<std::uint8_t>()) {
      insertion_report_t<std::uint8_t>(slab, v, 1, k_max, s, out, &tolerated);
      return tolerated;
    }
    width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  insertion_report_t<std::uint16_t>(shared_rows<std::uint16_t>(), v, 1, k_max, s, out,
                                    &tolerated);
  return tolerated;
}

template <typename Dist>
KStabilityReport SwapEngine::insertion_sweep_t(const Dist* apsp, Vertex k) const {
  const Vertex n = csr_.num_vertices();

  // Per-agent instances are independent given the shared rows; results land
  // in per-agent slots and fold serially, so the reported witness is the
  // EARLIEST unstable agent — the naive sequential sweep's answer — at every
  // thread count. The atomic cutoff only ever skips agents strictly above
  // the current minimum unstable id, which cannot be the answer, so the
  // early exit is a pure work saver with no observable effect.
  std::vector<KStabilityReport> per_agent(n);
  std::vector<std::uint8_t> unstable(n, 0);
  std::atomic<Vertex> first_bad{n};
  ThreadPool& pool = ThreadPool::global();
  {
    std::vector<Scratch> scratch(pool.size());
    pool.parallel_for(n, 1, [&](std::uint64_t vi, unsigned tid) {
      const Vertex v = static_cast<Vertex>(vi);
      if (v > first_bad.load(std::memory_order_relaxed)) return;
      KStabilityReport report;
      insertion_report_t<Dist>(apsp, v, k, k, scratch[tid], report, nullptr);
      if (report.stable) return;
      per_agent[v] = std::move(report);
      unstable[v] = 1;
      Vertex current = first_bad.load(std::memory_order_relaxed);
      while (v < current &&
             !first_bad.compare_exchange_weak(current, v, std::memory_order_relaxed)) {
      }
    });
  }
  for (Vertex v = 0; v < n; ++v) {
    if (unstable[v] != 0) return per_agent[v];
  }
  return {};
}

KStabilityReport SwapEngine::insertion_stability(Vertex k) const {
  const Vertex n = csr_.num_vertices();
  if (n == 0) return {};
  // The whole sweep reads the shared *unmasked* slab: the insertion cover
  // condition reads full-graph rows only (see build_cover_sets), so no
  // per-agent traversal survives. Connectivity is checked up front on row 0
  // (spanning from one vertex spans from all) so the per-agent REQUIRE never
  // fires inside the pool.
  if (prefer_u8_) {
    if (const std::uint8_t* slab = shared_rows<std::uint8_t>()) {
      BNCG_REQUIRE(*std::max_element(slab, slab + n) < engine_inf<std::uint8_t>(),
                   "k-stability analysis requires a connected graph");
      return insertion_sweep_t<std::uint8_t>(slab, k);
    }
    width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint16_t* slab = shared_rows<std::uint16_t>();
  BNCG_REQUIRE(*std::max_element(slab, slab + n) < engine_inf<std::uint16_t>(),
               "k-stability analysis requires a connected graph");
  return insertion_sweep_t<std::uint16_t>(slab, k);
}

template <typename Dist>
bool SwapEngine::swap_stability_t(Vertex v, Vertex k, std::uint64_t old_ecc, Scratch& s,
                                  KStabilityReport& out) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  out = KStabilityReport{};
  out.witness_vertex = v;

  // The far filter must see the inf sentinel as "far" (deletions can push
  // vertices out of v's component entirely, matching the oracle's kInfDist
  // inclusion); that reading needs old_ecc − 1 to stay below the sentinel.
  if (static_cast<std::int32_t>(old_ecc) - 1 > static_cast<std::int32_t>(engine_max_finite<Dist>())) {
    return false;
  }

  const auto nbrs = csr_.neighbors(v);
  const Vertex deg = static_cast<Vertex>(nbrs.size());
  BNCG_REQUIRE(deg < 32, "swap-stability subset enumeration requires deg(v) < 32");

  // One masked APSP of G − v serves every deletion subset D: (G − D) − v is
  // G − v, so each subset only changes WHICH neighbor rows fold into v's
  // post-deletion profile, never the rows themselves.
  auto& rows = s.rows<Dist>();
  rows.apsp.resize(static_cast<std::size_t>(n) * n);
  if (!csr_apsp_capped<Dist>(csr_, MaskedEdge{}, rows.apsp.data(), s.bfs_,
                             /*masked_vertex=*/v, kInf, engine_max_finite<Dist>())) {
    return false;
  }
  rows.arow.resize(n);
  s.far_.resize(n);

  const Vertex j_max = std::min<Vertex>(k, deg);
  std::vector<std::vector<std::uint64_t>> sets;
  std::vector<Vertex> labels;
  const std::int32_t cover_cap = static_cast<std::int32_t>(old_ecc) - 1;
  for (Vertex j = 1; j <= j_max; ++j) {
    for (std::uint32_t mask = 0; mask < (1u << deg); ++mask) {
      if (static_cast<Vertex>(__builtin_popcount(mask)) != j) continue;
      // KD = min over KEPT neighbor rows, folded in ascending endpoint order
      // (DESIGN.md §14); 1 + KD is v's distance profile in G − D, so the far
      // set is everything 1 + KD pushes to ≥ old_ecc — collect_above at
      // old_ecc − 2, with empty-fold ∞ entries passing the filter.
      Dist* kd = rows.arow.data();
      std::fill(kd, kd + n, kInf);
      for (Vertex i = 0; i < deg; ++i) {
        if ((mask & (1u << i)) != 0) continue;
        kern.min_fold(kd, rows.apsp.data() + static_cast<std::size_t>(nbrs[i]) * n, n);
      }
      const std::uint32_t far_count = kern.collect_above(
          kd, n, static_cast<std::int32_t>(old_ecc) - 2, /*skip=*/v, s.far_.data());
      build_cover_sets(rows.apsp.data(), n, v, s.far_.data(), far_count, cover_cap,
                       /*dedup=*/false, /*budget=*/j, nullptr, s.hits_, s.masks_, sets, labels);
      if (const auto selection = cover_select(far_count, sets, j)) {
        out.stable = false;
        for (Vertex i = 0; i < deg; ++i) {
          if ((mask & (1u << i)) != 0) out.witness_deletions.push_back(nbrs[i]);
        }
        for (const std::size_t c : *selection) out.witness_endpoints.push_back(labels[c]);
        return true;
      }
    }
  }
  return true;
}

KStabilityReport SwapEngine::swap_stability_at(Vertex v, Vertex k, Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  const std::uint64_t old_ecc = agent_cost(v, UsageCost::Max, s);
  BNCG_REQUIRE(old_ecc != kInfCost, "swap-stability analysis requires a connected graph");
  KStabilityReport out;
  out.witness_vertex = v;
  if (old_ecc <= 1 || k == 0) return out;
  if (prefer_u8_) {
    if (swap_stability_t<std::uint8_t>(v, k, old_ecc, s, out)) return out;
    width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  (void)swap_stability_t<std::uint16_t>(v, k, old_ecc, s, out);
  return out;
}

template <typename Dist>
bool SwapEngine::alpha_scan_t(Vertex v, const std::vector<std::uint8_t>& owned,
                              Scratch& s) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  s.alpha_.clear();

  const auto nbrs = csr_.neighbors(v);
  s.is_nbr_.assign(n, 0);
  s.is_nbr_[v] = 1;
  for (const Vertex w : nbrs) s.is_nbr_[w] = 1;

  // Unlike the basic-game scan, the α-game has ADD moves, so even an
  // isolated agent runs the masked APSP: an added edge v–w gives the profile
  // 1 + min(min1, c_w) (the source-removal identity over N(v) ∪ {w}).
  auto& rows = s.rows<Dist>();
  rows.apsp.resize(static_cast<std::size_t>(n) * n);
  if (!csr_apsp_capped<Dist>(csr_, MaskedEdge{}, rows.apsp.data(), s.bfs_,
                             /*masked_vertex=*/v, kInf, engine_max_finite<Dist>())) {
    return false;
  }
  rows.min1.assign(n, kInf);
  rows.min2.assign(n, kInf);
  s.argmin_.assign(n, kNoVertex);
  for (const Vertex z : nbrs) {
    kern.scan_min_update(rows.min1.data(), rows.min2.data(), s.argmin_.data(),
                         rows.apsp.data() + static_cast<std::size_t>(z) * n, z, n);
  }
  rows.arow.resize(n);
  rows.mrow.resize(n);

  // Adds, ascending endpoint (the naive loop order).
  Dist* add_profile = rows.arow.data();
  std::copy(rows.min1.begin(), rows.min1.end(), add_profile);
  add_profile[v] = 0;
  for (Vertex w = 0; w < n; ++w) {
    if (s.is_nbr_[w] != 0) continue;
    const std::uint64_t usage = kern.combine_sum(
        add_profile, rows.apsp.data() + static_cast<std::size_t>(w) * n, n, kInf);
    s.alpha_.push_back({AlphaCandidate::Kind::Add, w, 0, usage});
  }

  // Deletes then swaps, per owned neighbor in ascending (sorted) order.
  for (const Vertex w : nbrs) {
    if (owned[w] == 0) continue;
    Dist* m = rows.mrow.data();
    kern.select_mrow(m, rows.min1.data(), rows.min2.data(), s.argmin_.data(), w, n);
    m[v] = 0;
    // Post-deletion profile is 1 + M^w; combine_sum(m, m) = (n−1) + Σ M^w.
    s.alpha_.push_back({AlphaCandidate::Kind::Delete, w, 0, kern.combine_sum(m, m, n, kInf)});
    for (Vertex w2 = 0; w2 < n; ++w2) {
      if (s.is_nbr_[w2] != 0) continue;
      const std::uint64_t usage =
          kern.combine_sum(m, rows.apsp.data() + static_cast<std::size_t>(w2) * n, n, kInf);
      s.alpha_.push_back({AlphaCandidate::Kind::Swap, w, w2, usage});
    }
  }
  return true;
}

const std::vector<AlphaCandidate>& SwapEngine::alpha_scan(Vertex v,
                                                          const std::vector<std::uint8_t>& owned,
                                                          Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  BNCG_REQUIRE(owned.size() >= csr_.num_vertices(), "owned flags must cover every vertex");
  if (prefer_u8_) {
    if (alpha_scan_t<std::uint8_t>(v, owned, s)) return s.alpha_;
    width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  (void)alpha_scan_t<std::uint16_t>(v, owned, s);
  return s.alpha_;
}

}  // namespace bncg
