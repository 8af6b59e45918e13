// The engine's width-fallback rule, recomputed by literal BFS: a u8 query
// falls back iff the u8 slab saturates, or iff a value the query computes or
// reads lies beyond the u8 cap (DESIGN.md §17). A dense agent computes the
// fold of its masked neighbor rows (min1, min2, argmin) and reads the masked
// rows of the candidates its unmasked bound or far test cannot rule out; the
// α scan reads every candidate row and the k-swap scan its kept-neighbor and
// far rows. LazyWidthRule replays exactly those reads over BFS distances of
// G and G − v, sharing no code with the engine, so the fallback tests can
// pin width_fallbacks to counts computed independently.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/kstability.hpp"
#include "core/usage_cost.hpp"
#include "graph/bfs.hpp"
#include "graph/csr.hpp"
#include "graph/dist_width.hpp"
#include "graph/graph.hpp"

namespace bncg {

class LazyWidthRule {
 public:
  using Matrix = std::vector<std::vector<Vertex>>;
  static constexpr Vertex kCap = kMaxFiniteFor<std::uint8_t>;

  /// Unmasked distances of `g`, and whether its u8 slab saturates.
  explicit LazyWidthRule(const Graph& g) : g_(g), unmasked_(apsp(g)) {
    for (const auto& row : unmasked_) slab_saturates_ = slab_saturates_ || over_cap(row);
  }

  /// Starts agent v: the masked matrix of G − v (row v all ∞) and the
  /// fold of its neighbor rows in neighbor order with strict '<', column v
  /// pinned to (0, ∞, kNoVertex).
  void begin(Vertex v) {
    v_ = v;
    Graph masked = g_;
    nbrs_.assign(g_.neighbors(v).begin(), g_.neighbors(v).end());
    for (const Vertex w : nbrs_) masked.remove_edge(v, w);
    masked_ = apsp(masked);
    const Vertex n = g_.num_vertices();
    min1_.assign(n, kInfDist);
    min2_.assign(n, kInfDist);
    argmin_.assign(n, kNoVertex);
    for (const Vertex z : nbrs_) {
      for (Vertex u = 0; u < n; ++u) {
        const Vertex d = masked_[z][u];
        if (d < min1_[u]) {
          min2_[u] = min1_[u];
          min1_[u] = d;
          argmin_[u] = z;
        } else if (d < min2_[u]) {
          min2_[u] = d;
        }
      }
    }
    min1_[v] = 0;
    min2_[v] = kInfDist;
    argmin_[v] = kNoVertex;
    fold_saturates_ = over_cap(min1_) || over_cap(min2_);
  }

  /// best_deviation (stop_at_first = false) or first_deviation of the
  /// agent begun: true iff it falls back.
  [[nodiscard]] bool scan(UsageCost model, bool deletions, bool stop_at_first) const {
    if (nbrs_.empty()) return false;  // isolated agents never reach the ladder
    if (slab_saturates_ || fold_saturates_) return true;
    const Vertex n = g_.num_vertices();
    const std::uint64_t old_cost = model == UsageCost::Sum ? sum_cost(min1_, min1_)
                                                           : max_cost(min1_, min1_);
    std::optional<std::uint64_t> best;
    const auto take = [&](std::uint64_t cost) {
      if (!best || cost < *best) {
        best = cost;
        return stop_at_first;
      }
      return false;
    };
    std::vector<Vertex> m(n);
    for (const Vertex w : nbrs_) {
      for (Vertex u = 0; u < n; ++u) m[u] = argmin_[u] == w ? min2_[u] : min1_[u];
      if (model == UsageCost::Max && deletions) {
        const std::uint64_t cost = max_cost(m, m);
        if (cost <= old_cost && take(cost)) return false;
      }
      if (model == UsageCost::Sum) {
        for (Vertex w2 = 0; w2 < n; ++w2) {
          if (!candidate(w2)) continue;
          const std::uint64_t bound = sum_cost(m, unmasked_[w2]);
          if (bound >= old_cost || (best && bound >= *best)) continue;
          if (over_cap(masked_[w2])) return true;
          const std::uint64_t cost = sum_cost(m, masked_[w2]);
          if (cost < old_cost && take(cost)) return false;
        }
        continue;
      }
      // Max: far set, unmasked far test, then the survivors' masked rows.
      const std::int64_t cap = old_cost == kInfCost ? std::int64_t{kInfDist} - 1
                                                    : static_cast<std::int64_t>(old_cost) - 2;
      std::vector<Vertex> far;
      for (Vertex u = 0; u < n; ++u) {
        if (u != v_ && static_cast<std::int64_t>(m[u]) > cap) far.push_back(u);
      }
      const auto within = [&](const std::vector<Vertex>& row) {
        return std::all_of(far.begin(), far.end(),
                           [&](Vertex u) { return static_cast<std::int64_t>(row[u]) <= cap; });
      };
      for (Vertex w2 = 0; w2 < n; ++w2) {
        if (!candidate(w2) || !within(unmasked_[w2])) continue;
        if (over_cap(masked_[w2])) return true;
        if (within(masked_[w2]) && take(max_cost(m, masked_[w2]))) return false;
      }
    }
    return false;
  }

  /// alpha_scan of the agent begun: every add and swap reads a candidate row.
  [[nodiscard]] bool alpha() const {
    if (slab_saturates_ || fold_saturates_) return true;
    for (Vertex x = 0; x < g_.num_vertices(); ++x) {
      if (candidate(x) && over_cap(masked_[x])) return true;
    }
    return false;
  }

  /// swap_stability_at(v, k) of the agent begun: the kept-neighbor rows and
  /// far rows of every deletion subset up to the one the oracle's witness
  /// deletes (all of them when v is stable).
  [[nodiscard]] bool kswap(Vertex k) const {
    const Vertex n = g_.num_vertices();
    const std::uint64_t old_ecc = max_cost(min1_, min1_);
    if (old_ecc <= 1 || k == 0) return false;  // answered before the ladder
    if (slab_saturates_ || fold_saturates_) return true;
    const KStabilityReport oracle = naive::swap_stability_at(g_, v_, k);
    const Vertex deg = static_cast<Vertex>(nbrs_.size());
    std::uint32_t stop = 0;
    for (Vertex i = 0; i < deg; ++i) {
      const auto& del = oracle.witness_deletions;
      if (std::find(del.begin(), del.end(), nbrs_[i]) != del.end()) stop |= 1u << i;
    }
    std::vector<Vertex> kd(n);
    for (Vertex j = 1; j <= std::min(k, deg); ++j) {
      for (std::uint32_t mask = 0; mask < (1u << deg); ++mask) {
        if (static_cast<Vertex>(__builtin_popcount(mask)) != j) continue;
        std::fill(kd.begin(), kd.end(), kInfDist);
        for (Vertex i = 0; i < deg; ++i) {
          if ((mask & (1u << i)) != 0) continue;
          if (over_cap(masked_[nbrs_[i]])) return true;
          for (Vertex u = 0; u < n; ++u) kd[u] = std::min(kd[u], masked_[nbrs_[i]][u]);
        }
        for (Vertex u = 0; u < n; ++u) {
          if (u != v_ && kd[u] != kInfDist && kd[u] + 2 <= old_ecc) continue;
          if (u != v_ && over_cap(masked_[u])) return true;
        }
        if (!oracle.stable && mask == stop) return false;
      }
    }
    return false;
  }

 private:
  static Matrix apsp(const Graph& g) {
    BfsWorkspace ws;
    Matrix out(g.num_vertices());
    for (Vertex x = 0; x < g.num_vertices(); ++x) {
      (void)bfs(g, x, ws);
      out[x] = ws.dist();
    }
    return out;
  }

  static bool over_cap(const std::vector<Vertex>& row) {
    return std::any_of(row.begin(), row.end(), [](Vertex d) { return d != kInfDist && d > kCap; });
  }

  /// (n−1) + Σ_u min(m_u, c_u), or kInfCost when a term is ∞.
  static std::uint64_t sum_cost(const std::vector<Vertex>& m, const std::vector<Vertex>& c) {
    std::uint64_t sum = m.size() - 1;
    for (std::size_t u = 0; u < m.size(); ++u) {
      const Vertex d = std::min(m[u], c[u]);
      if (d == kInfDist) return kInfCost;
      sum += d;
    }
    return sum;
  }

  /// 1 + max_u min(m_u, c_u), or kInfCost when a term is ∞.
  static std::uint64_t max_cost(const std::vector<Vertex>& m, const std::vector<Vertex>& c) {
    std::uint64_t worst = 0;
    for (std::size_t u = 0; u < m.size(); ++u) {
      const Vertex d = std::min(m[u], c[u]);
      if (d == kInfDist) return kInfCost;
      worst = std::max<std::uint64_t>(worst, d);
    }
    return worst + 1;
  }

  [[nodiscard]] bool candidate(Vertex x) const {
    return x != v_ && std::find(nbrs_.begin(), nbrs_.end(), x) == nbrs_.end();
  }

  const Graph& g_;
  Matrix unmasked_;
  bool slab_saturates_ = false;
  Vertex v_ = 0;
  std::vector<Vertex> nbrs_;
  Matrix masked_;
  std::vector<Vertex> min1_, min2_, argmin_;
  bool fold_saturates_ = false;
};

}  // namespace bncg
