#include "core/swap_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <limits>
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
// 1 + max_u m_u) and the scan-table maintenance loops live in util/simd.hpp
// as runtime-dispatched kernels, reached through simd::kernels<Dist>().

/// Usage cost of the agent whose unmasked distance row is `row`: Σ or max
/// over the row, kInfCost when some entry is the width's infinity.
template <typename Dist>
std::uint64_t row_cost(const Dist* row, Vertex n, UsageCost model) {
  std::uint32_t sum = 0;
  Dist ecc = 0;
  simd::kernels<Dist>().row_sum_max(row, n, &sum, &ecc);
  if (ecc >= engine_inf<Dist>()) return kInfCost;
  return model == UsageCost::Sum ? std::uint64_t{sum} : ecc;
}

constexpr std::size_t words_for(std::uint32_t bits) {
  return (static_cast<std::size_t>(bits) + 63) / 64;
}

/// The word with bits 0..count−1 set (count ≤ 64).
constexpr std::uint64_t low_bits(std::size_t count) {
  return count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
}

/// Coverage masks of one cover instance, scored from symmetric all-pairs
/// rows — `row_of(x)` returns row x, valid until the next call: candidate
/// w covers far element idx iff row_of(far[idx])[w] < cap (i.e.
/// d(w, far[idx]) + 2 ≤ ecc with cap = ecc − 1). One collect_below per far
/// vertex builds the masks column-sparse; the w-ascending harvest then reproduces the oracle's set
/// order, empty-mask skipping, and (for insertions) its first-label dedup —
/// so cover_select sees byte-identical instances. The via-v path a real
/// insertion also offers can be ignored here: for far x it is ≥ ecc + 1
/// long, which never meets the ≤ ecc − 2 cover condition (DESIGN.md §14),
/// which is why masked and full-graph rows agree on every mask bit of an
/// insertion instance.
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
template <typename RowOf>
void build_cover_sets(RowOf&& row_of, Vertex n, Vertex v, const Vertex* far,
                      std::uint32_t far_count, std::int32_t cap, bool dedup,
                      std::uint64_t budget, std::uint32_t* max_set_out,
                      AlignedVec<Vertex>& hits, std::vector<std::uint64_t>& wmask,
                      std::vector<std::vector<std::uint64_t>>& sets, std::vector<Vertex>& labels) {
  using Dist = std::remove_cvref_t<decltype(*row_of(Vertex{0}))>;
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const std::size_t words = words_for(far_count);
  wmask.assign(static_cast<std::size_t>(n) * words, 0);
  hits.resize(n);
  for (std::uint32_t idx = 0; idx < far_count; ++idx) {
    const std::uint32_t count =
        kern.collect_below(row_of(far[idx]), n, cap, /*skip=*/v, hits.data());
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
  const RowCacheStats& a = rows8_.cache.stats();
  const RowCacheStats& b = rows16_.cache.stats();
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

std::uint64_t SwapEngine::agent_cost(Vertex v, UsageCost model) const {
  const Vertex n = csr_.num_vertices();
  BNCG_REQUIRE(v < n, "vertex id out of range");
  const std::size_t row = static_cast<std::size_t>(v) * n;
  if (prefer_u8_) {
    if (const std::uint8_t* slab = shared_rows<std::uint8_t>()) {
      return row_cost(slab + row, n, model);
    }
  }
  return row_cost(shared_rows<std::uint16_t>() + row, n, model);
}

std::uint64_t SwapEngine::candidates_through(const Scratch& s, Vertex last) {
  std::uint64_t count = 0;
  for (Vertex x = 0; x <= last; ++x) count += s.is_nbr_[x] == 0 ? 1 : 0;
  return count;
}

template <typename Dist>
const Dist* SwapEngine::unmasked_row(const Dist* slab, Vertex x, Scratch& s) const {
  if (slab != nullptr) return slab + static_cast<std::size_t>(x) * csr_.num_vertices();
  return s.rows<Dist>().cache.row(x, s.bfs_);
}

template <typename Dist>
bool SwapEngine::begin_agent_t(const Dist* slab, Vertex v, Scratch& s) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  const auto nbrs = csr_.neighbors(v);
  s.is_nbr_.assign(n, 0);
  s.is_nbr_[v] = 1;
  for (const Vertex w : nbrs) s.is_nbr_[w] = 1;

  auto& rows = s.rows<Dist>();
  MaskedRowRepair<Dist>& repair = rows.repair;
  repair.begin(csr_, v, kInf, engine_max_finite<Dist>());
  if (slab == nullptr) {
    // Budgeted: the agent's unmasked rows stream through the row cache.
    // An unlimited budget (possible at n ≥ 65535, where no dense slab
    // exists regardless) lets blocks grow on demand without eviction.
    const std::uint64_t budget = budget_policy_.lane_budget();
    rows.cache.configure(n, budget != 0 ? budget : std::numeric_limits<std::uint64_t>::max());
    rows.cache.begin_context(csr_, kInf, engine_max_finite<Dist>());
  }

  // Elementwise min / argmin / second-min over the unmasked neighbor rows,
  // made masked by settle_second_min (DESIGN.md §3), so each removed edge's
  // kept-neighbor profile M^w is an O(n) select. Budgeted scans fill the
  // neighbor rows ≤ 64 per bit-parallel batch first.
  rows.min1.assign(n, kInf);
  rows.min2.assign(n, kInf);
  s.argmin_.assign(n, kNoVertex);
  rows.arow.resize(n);
  for (std::size_t i = 0; i < nbrs.size(); i += 64) {
    const auto group = nbrs.subspan(i, std::min<std::size_t>(64, nbrs.size() - i));
    if (slab == nullptr && !rows.cache.prefetch(group, s.bfs_)) return false;
    for (const Vertex z : group) {
      const Dist* row = unmasked_row(slab, z, s);
      if (row == nullptr) return false;
      kern.scan_min_update(rows.min1.data(), rows.min2.data(), s.argmin_.data(), row, z, n);
    }
  }
  const bool fits = repair.settle_second_min(rows.min1.data(), rows.min2.data(), s.argmin_.data());
  // No masked row reaches v. min1[v] = 0 makes 1 + min1 = d_G(v, ·), and
  // select_mrow copies it into every M^w: combines need no u = v case.
  rows.min1[v] = 0;
  rows.min2[v] = kInf;
  s.argmin_[v] = kNoVertex;
  return fits;
}

template <typename Dist>
std::optional<SwapEngine::Fold<Dist>> SwapEngine::fold_agent(Vertex v, Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  const bool dense = budget_policy_.dense_fits(
      csr_.num_vertices(), std::is_same_v<Dist, std::uint8_t> ? DistWidth::U8 : DistWidth::U16);
  const Dist* slab = dense ? shared_rows<Dist>() : nullptr;
  if ((dense && slab == nullptr) || !begin_agent_t(slab, v, s)) return std::nullopt;
  return Fold<Dist>{s.rows<Dist>().min1, s.rows<Dist>().min2, s.argmin_};
}
template std::optional<SwapEngine::Fold<std::uint8_t>> SwapEngine::fold_agent(Vertex,
                                                                              Scratch&) const;
template std::optional<SwapEngine::Fold<std::uint16_t>> SwapEngine::fold_agent(Vertex,
                                                                               Scratch&) const;

template <typename Dist>
bool SwapEngine::scan_agent_t(Vertex v, UsageCost model, bool stop_at_first,
                              bool include_deletions, std::uint64_t* moves_checked,
                              const Dist* slab, Scratch& s, std::optional<Deviation>& out) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  BNCG_REQUIRE(v < n, "vertex id out of range");

  // The neighbor rows fold unmasked, and a candidate's masked row comes as
  // sparse patches over its unmasked row, repaired only once its unmasked
  // lower bound cannot rule it out. A fold entry or repaired row beyond the
  // width means this agent does not fit: bail so at_width redoes it at
  // u16. Candidates w₂ must be fresh edges (swapping onto an existing edge
  // is a deletion and never improves either model): the closed-neighborhood
  // marks skip the rest.
  out.reset();
  if (!begin_agent_t(slab, v, s)) return false;
  auto& rows = s.rows<Dist>();
  MaskedRowRepair<Dist>& repair = rows.repair;
  const auto nbrs = csr_.neighbors(v);

  // The agent's current cost falls out of the fold: 1 + min1 is d_G(v, ·).
  const std::uint64_t old_cost = model == UsageCost::Sum
                                     ? kern.combine_sum(rows.min1.data(), rows.min1.data(), n, kInf)
                                     : kern.deletion_ecc(rows.min1.data(), n, kInf);

  rows.mrow.resize(n);
  s.far_.resize(n);
  s.far_mark_.assign(n, 0);
  const std::size_t words = words_for(n);
  // Candidates per removed edge — the bulk move-count term of the max
  // model, where the far test "checks" every candidate whether or not its
  // row is ever read.
  const std::uint64_t candidate_count = candidates_through(s, n - 1);
  // Max model: cost'(v) < old_cost iff candidate w₂ covers the removed
  // edge's far set — the vertices the kept neighbors do not already serve
  // within old_cost − 1 — within cap = old_cost − 2 (reads "repair
  // connectivity" when old_cost = ∞). cap is signed: old_cost = 1 makes
  // improvement impossible and the far test rejects everything.
  const std::int32_t cap =
      old_cost == kInfCost ? std::int32_t{kInf} - 1 : static_cast<std::int32_t>(old_cost) - 2;
  // Budgeted, one bit per edge of the current group of ≤ 64 removed edges:
  // edges whose far set holds a width-saturating vertex, and edges some
  // candidate survives.
  std::uint64_t saturated_edges = 0;
  std::uint64_t surviving_edges = 0;
  if (model == UsageCost::Max) {
    s.alive_.resize(words);
    if (slab != nullptr) {
      s.candidates_.assign(words, 0);
      for (Vertex x = 0; x < n; ++x) {
        if (s.is_nbr_[x] == 0) s.candidates_[x / 64] |= std::uint64_t{1} << (x % 64);
      }
    }
  }

  std::optional<Deviation> best;
  for (std::size_t e = 0; e < nbrs.size(); ++e) {
    const Vertex w = nbrs[e];
    // M^w_u = min_{z ∈ N(v)∖{w}} d_{G−v}(z, u), with the v entry 0 so
    // whole-row combines need no special case for u = v — which is also why
    // the finite column v of an unmasked row never shows in a combine.
    Dist* m = rows.mrow.data();
    kern.select_mrow(m, rows.min1.data(), rows.min2.data(), s.argmin_.data(), w, n);

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
        // Masking only lengthens entries, so the unmasked combine is a lower
        // bound: a candidate it already keeps from improving, or from
        // beating the best so far, needs no repaired row.
        const Dist* c = unmasked_row(slab, w2, s);
        if (c == nullptr) return false;
        const std::uint64_t bound = kern.combine_sum(m, c, n, kInf);
        if (bound >= old_cost || (best && bound >= best->cost_after)) continue;
        const auto patches = repair.repair(w2, c);
        if (!patches) return false;
        const std::uint64_t new_cost = patched_sum(bound, m, c, *patches, n, kInf);
        if (new_cost >= old_cost) continue;
        if (!best || new_cost < best->cost_after) {
          best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
          if (stop_at_first) {
            out = best;
            return true;
          }
        }
      }
      continue;
    }

    // Far test: the removed edge's survivors into alive, one bit per
    // vertex. It is the one step that depends on storage.
    if (moves_checked != nullptr) *moves_checked += candidate_count;
    if (candidate_count == 0) continue;
    std::uint64_t* alive = s.alive_.data();
    std::uint32_t far_count = 0;
    bool any = false;
    if (slab != nullptr) {
      // Dense, far vertex outer (DESIGN.md §4): w₂ survives iff
      // d(w₂, u) ≤ cap for every far u. The slab is symmetric, so row u is
      // column u, and one keep_within per far row tests every candidate; it
      // stops once none is left. Masking only lengthens distances, so an
      // unmasked far entry above cap already rejects; survivors check their
      // patched far entries below.
      far_count = kern.collect_above(m, n, cap, /*skip=*/v, s.far_.data());
      std::copy(s.candidates_.begin(), s.candidates_.end(), alive);
      any = true;
      for (std::uint32_t i = 0; i < far_count && any; ++i) {
        any = kern.keep_within(alive, slab + static_cast<std::size_t>(s.far_[i]) * n, n, cap);
      }
    } else {
      // Budgeted, by reach (DESIGN.md §16): one bit-parallel traversal of
      // G − v per ≤ 64 vertices of the union far set of a group of ≤ 64
      // removed edges. Survivors already cover their far set in G − v. A
      // far vertex whose masked row saturates the width sends the agent to
      // u16.
      const std::size_t bit = e % 64;
      if (bit == 0) {
        saturated_edges =
            reach_filter_t<Dist>(v, e, std::min<std::size_t>(64, nbrs.size() - e), cap, s);
        surviving_edges = 0;
        for (Vertex x = 0; x < n; ++x) surviving_edges |= s.candidates_[x];
      }
      if ((saturated_edges >> bit & 1) != 0) return false;
      any = (surviving_edges >> bit & 1) != 0;
      if (any) {
        std::fill(alive, alive + words, 0);
        for (Vertex x = 0; x < n; ++x) {
          alive[x / 64] |= (s.candidates_[x] >> bit & 1) << (x % 64);
        }
      }
    }
    if (!any) continue;

    // Survivors, in ascending order: repair the row, check its patched far
    // entries, and take the exact combine.
    for (std::uint32_t i = 0; i < far_count; ++i) s.far_mark_[s.far_[i]] = 1;
    for (std::size_t word = 0; word < words; ++word) {
      for (std::uint64_t bits = alive[word]; bits != 0; bits &= bits - 1) {
        const auto w2 = static_cast<Vertex>(word * 64 + std::countr_zero(bits));
        const Dist* c = unmasked_row(slab, w2, s);
        if (c == nullptr) return false;
        const auto patches = repair.repair(w2, c);
        if (!patches) return false;
        bool improves = true;
        for (std::size_t i = 0; i < patches->size() && improves; ++i) {
          improves = s.far_mark_[(*patches)[i].u] == 0 || (*patches)[i].d <= cap;
        }
        if (!improves) continue;
        // A survivor costs at most cap + 1 < old_cost, and a deletion never
        // costs less than old_cost, so a swap always displaces a deletion
        // best — the oracle's tie rule.
        const std::uint64_t new_cost =
            patched_max(kern.combine_max(m, c, n, kInf), m, *patches, kInf);
        if (!best || new_cost < best->cost_after) {
          best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
          if (stop_at_first) {
            if (moves_checked != nullptr) {
              *moves_checked -= candidate_count - candidates_through(s, w2);
            }
            out = best;
            return true;
          }
        }
      }
    }
    for (std::uint32_t i = 0; i < far_count; ++i) s.far_mark_[s.far_[i]] = 0;
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
  // Per candidate, the group's edges it still survives.
  s.candidates_.resize(n);
  std::uint64_t* alive = s.candidates_.data();
  for (Vertex x = 0; x < n; ++x) alive[x] = s.is_nbr_[x] != 0 ? 0 : group_bits;
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
      std::uint64_t edges_alive = alive[x];
      if (edges_alive == 0) continue;
      if ((reach[x] & universal_bits) != universal_bits) {
        edges_alive = 0;
      } else {
        for (const std::uint32_t e : chunk_edges) {
          if ((reach[x] & private_bits[e]) != private_bits[e]) {
            edges_alive &= ~(std::uint64_t{1} << e);
          }
        }
      }
      alive[x] = edges_alive;
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
      sh.rows.resize(static_cast<std::size_t>(n) * n);
      const bool fits = build_unmasked_slab<Dist>(csr_, sh.rows.data(), engine_inf<Dist>(),
                                                  engine_max_finite<Dist>());
      if (!fits) AlignedVec<Dist>().swap(sh.rows);
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

template <typename Scan>
void SwapEngine::at_width(bool budgeted, Scan&& scan) const {
  const Vertex n = csr_.num_vertices();
  const auto dense = [&](DistWidth w) { return !budgeted || budget_policy_.dense_fits(n, w); };
  if (prefer_u8_) {
    // A u8 slab that saturates holds a row beyond the width: the query
    // falls back without scanning at u8.
    const std::uint8_t* slab = dense(DistWidth::U8) ? shared_rows<std::uint8_t>() : nullptr;
    if ((slab != nullptr || !dense(DistWidth::U8)) && scan(slab)) return;
    width_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  // Dense u16 cannot saturate under its n < 65535 gate. Budgeted u16 can —
  // a masked diameter beyond 65534 — and there is no wider storage to fall
  // back to.
  const std::uint16_t* slab = dense(DistWidth::U16) ? shared_rows<std::uint16_t>() : nullptr;
  BNCG_REQUIRE(scan(slab),
               "u16 scan saturated: some masked distance exceeds the 16-bit encoding; this "
               "instance is beyond the engine's distance range");
}

std::optional<Deviation> SwapEngine::scan_agent(Vertex v, UsageCost model, bool stop_at_first,
                                                bool include_deletions,
                                                std::uint64_t* moves_checked,
                                                Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  std::optional<Deviation> out;
  // An isolated agent has no move to scan, and like every scan it never
  // falls back.
  if (csr_.degree(v) == 0) return out;
  at_width(/*budgeted=*/true, [&](const auto* slab) {
    using Dist = std::remove_cvref_t<decltype(*slab)>;
    // Each width counts into a local counter, so a saturating u8 scan
    // leaves the caller's count untouched — the u16 redo recounts the
    // identical scan order, keeping move counts width-independent.
    std::uint64_t moves = 0;
    std::uint64_t* counter = moves_checked != nullptr ? &moves : nullptr;
    const bool ok =
        scan_agent_t<Dist>(v, model, stop_at_first, include_deletions, counter, slab, s, out);
    if (ok && moves_checked != nullptr) *moves_checked += moves;
    return ok;
  });
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

// --------------------------------------------------- k-move deviation paths

template <typename Dist>
void SwapEngine::insertion_report_t(const Dist* apsp, Vertex v, Vertex k_lo, Vertex k_hi,
                                    Scratch& s, KStabilityReport& out, Vertex* tolerated) const {
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  out = KStabilityReport{};
  out.witness_vertex = v;
  if (tolerated != nullptr) *tolerated = k_hi;

  const Dist* row_v = apsp + static_cast<std::size_t>(v) * n;
  const std::uint64_t ecc = row_cost(row_v, n, UsageCost::Max);
  BNCG_REQUIRE(ecc != kInfCost, "k-stability analysis requires a connected graph");
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
  build_cover_sets([&](Vertex x) { return apsp + static_cast<std::size_t>(x) * n; }, n, v,
                   s.far_.data(), far_count, cap, /*dedup=*/true, /*budget=*/k_hi, &max_set,
                   s.hits_, s.masks_, sets, labels);

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
  at_width(/*budgeted=*/false, [&](const auto* slab) {
    insertion_report_t(slab, v, k, k, s, out, nullptr);
    return true;
  });
  return out;
}

Vertex SwapEngine::max_tolerated_insertions(Vertex v, Vertex k_max, Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  KStabilityReport out;
  Vertex tolerated = k_max;
  at_width(/*budgeted=*/false, [&](const auto* slab) {
    insertion_report_t(slab, v, 1, k_max, s, out, &tolerated);
    return true;
  });
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
  KStabilityReport out;
  at_width(/*budgeted=*/false, [&](const auto* slab) {
    BNCG_REQUIRE(row_cost(slab, n, UsageCost::Max) != kInfCost,
                 "k-stability analysis requires a connected graph");
    out = insertion_sweep_t(slab, k);
    return true;
  });
  return out;
}

template <typename Dist>
bool SwapEngine::swap_stability_t(const Dist* slab, Vertex v, Vertex k, std::uint64_t old_ecc,
                                  Scratch& s, KStabilityReport& out) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  out = KStabilityReport{};
  out.witness_vertex = v;

  // old_ecc is an entry of the slab, so the far filter below sees the ∞
  // sentinel as "far", as the oracle's kInfDist inclusion needs.
  const auto nbrs = csr_.neighbors(v);
  const Vertex deg = static_cast<Vertex>(nbrs.size());
  BNCG_REQUIRE(deg < 32, "swap-stability subset enumeration requires deg(v) < 32");

  // The rows of G − v serve every deletion subset D: (G − D) − v is G − v,
  // so each subset only changes WHICH neighbor rows fold into v's
  // post-deletion profile, never the rows themselves. They are repaired
  // over the shared slab as the subsets read them; once one saturates,
  // `fits` drops and the rows read after it are stale.
  if (!begin_agent_t(slab, v, s)) return false;
  auto& rows = s.rows<Dist>();
  bool fits = true;
  const auto masked_row = [&](Vertex x) -> const Dist* {
    fits = fits && rows.repair.materialize(x, slab + static_cast<std::size_t>(x) * n,
                                           rows.arow.data());
    return rows.arow.data();
  };
  rows.mrow.resize(n);
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
      Dist* kd = rows.mrow.data();
      std::fill(kd, kd + n, kInf);
      for (Vertex i = 0; i < deg; ++i) {
        if ((mask & (1u << i)) != 0) continue;
        kern.min_fold(kd, masked_row(nbrs[i]), n);
      }
      if (!fits) return false;
      const std::uint32_t far_count = kern.collect_above(
          kd, n, static_cast<std::int32_t>(old_ecc) - 2, /*skip=*/v, s.far_.data());
      build_cover_sets(masked_row, n, v, s.far_.data(), far_count, cover_cap, /*dedup=*/false,
                       /*budget=*/j, nullptr, s.hits_, s.masks_, sets, labels);
      if (!fits) return false;
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
  const std::uint64_t old_ecc = agent_cost(v, UsageCost::Max);
  BNCG_REQUIRE(old_ecc != kInfCost, "swap-stability analysis requires a connected graph");
  KStabilityReport out;
  out.witness_vertex = v;
  if (old_ecc <= 1 || k == 0) return out;
  at_width(/*budgeted=*/false, [&](const auto* slab) {
    return swap_stability_t(slab, v, k, old_ecc, s, out);
  });
  return out;
}

template <typename Dist>
bool SwapEngine::alpha_scan_t(const Dist* slab, Vertex v, const std::vector<std::uint8_t>& owned,
                              Scratch& s) const {
  constexpr Dist kInf = engine_inf<Dist>();
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  const Vertex n = csr_.num_vertices();
  const std::size_t stride = n;
  s.alpha_.clear();

  // Unlike the basic-game scan, the α-game has ADD moves, so even an
  // isolated agent reads G − v: an added edge v–w gives the profile
  // 1 + min(min1, c_w) (the source-removal identity over N(v) ∪ {w}).
  if (!begin_agent_t(slab, v, s)) return false;
  auto& rows = s.rows<Dist>();
  rows.mrow.resize(n);
  // Every usage is emitted, so every candidate row w is read: the combine
  // over its slab row, corrected by its repair patches (patched_sum).
  const auto usage = [&](const Dist* m, Vertex w) -> std::optional<std::uint64_t> {
    const Dist* c = slab + w * stride;
    const auto patches = rows.repair.repair(w, c);
    if (!patches) return std::nullopt;
    return patched_sum(kern.combine_sum(m, c, n, kInf), m, c, *patches, n, kInf);
  };

  // Adds, ascending endpoint (the naive loop order).
  Dist* add_profile = rows.arow.data();
  std::copy(rows.min1.begin(), rows.min1.end(), add_profile);
  for (Vertex w = 0; w < n; ++w) {
    if (s.is_nbr_[w] != 0) continue;
    const auto add = usage(add_profile, w);
    if (!add) return false;
    s.alpha_.push_back({AlphaCandidate::Kind::Add, w, 0, *add});
  }

  // Deletes then swaps, per owned neighbor in ascending (sorted) order.
  for (const Vertex w : csr_.neighbors(v)) {
    if (owned[w] == 0) continue;
    Dist* m = rows.mrow.data();
    kern.select_mrow(m, rows.min1.data(), rows.min2.data(), s.argmin_.data(), w, n);
    // Post-deletion profile is 1 + M^w; combine_sum(m, m) = (n−1) + Σ M^w.
    s.alpha_.push_back({AlphaCandidate::Kind::Delete, w, 0, kern.combine_sum(m, m, n, kInf)});
    for (Vertex w2 = 0; w2 < n; ++w2) {
      if (s.is_nbr_[w2] != 0) continue;
      const auto swap = usage(m, w2);
      if (!swap) return false;
      s.alpha_.push_back({AlphaCandidate::Kind::Swap, w, w2, *swap});
    }
  }
  return true;
}

const std::vector<AlphaCandidate>& SwapEngine::alpha_scan(Vertex v,
                                                          const std::vector<std::uint8_t>& owned,
                                                          Scratch& s) const {
  BNCG_REQUIRE(v < csr_.num_vertices(), "vertex id out of range");
  BNCG_REQUIRE(owned.size() >= csr_.num_vertices(), "owned flags must cover every vertex");
  at_width(/*budgeted=*/false, [&](const auto* slab) { return alpha_scan_t(slab, v, owned, s); });
  return s.alpha_;
}

}  // namespace bncg
