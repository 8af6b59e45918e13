#include "core/lemmas.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/equilibrium.hpp"
#include "core/swap_engine.hpp"
#include "graph/apsp.hpp"
#include "graph/connectivity.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"

namespace bncg {

bool lemma2_balanced_eccentricities(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  const auto ecc = eccentricities(g);
  const auto [lo, hi] = std::minmax_element(ecc.begin(), ecc.end());
  if (*hi == kInfDist) return false;  // disconnected
  return *hi - *lo <= 1;
}

bool lemma3_all_cut_vertices(const Graph& g) {
  for (const Vertex v : articulation_points(g)) {
    if (!lemma3_cut_vertex_property(g, v)) return false;
  }
  return true;
}

bool lemma6_diameter2_vertices_are_stable(const Graph& g) {
  const auto ecc = eccentricities(g);
  // One shared snapshot/scratch for the whole loop.
  SwapEngine engine(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (ecc[v] == kInfDist || ecc[v] > 2) continue;
    if (engine.first_deviation(v, UsageCost::Sum)) return false;
  }
  return true;
}

bool lemma7_gain_bound(const Graph& g) {
  const DistanceMatrix dm(g);
  if (!dm.connected()) return true;  // vacuous
  const Vertex n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    if (dm.eccentricity(v) != 3) continue;
    const auto dv = dm.row(v);
    for (Vertex w = 0; w < n; ++w) {
      if (w == v || g.has_edge(v, w)) continue;
      const Vertex r = dv[w];
      // Actual gain of adding edge vw.
      std::uint64_t gain = 0;
      const auto dw = dm.row(w);
      for (Vertex x = 0; x < n; ++x) {
        const Vertex via = static_cast<Vertex>(1 + dw[x]);
        if (via < dv[x]) gain += dv[x] - via;
      }
      // Lemma's bound: (r − 1) for w plus 1 per neighbor of w at distance 3.
      std::uint64_t bound = r - 1;
      for (const Vertex x : g.neighbors(w)) {
        if (dv[x] == 3) ++bound;
      }
      if (gain > bound) return false;
    }
  }
  return true;
}

bool lemma8_distance_penalty(const Graph& g) {
  BNCG_REQUIRE(girth(g) >= 4, "Lemma 8 requires girth >= 4");
  Graph work = g;
  BfsWorkspace ws;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::vector<Vertex> nbrs(g.neighbors(v).begin(), g.neighbors(v).end());
    for (const Vertex w : nbrs) {
      for (Vertex w2 = 0; w2 < g.num_vertices(); ++w2) {
        if (w2 == v || w2 == w || work.has_edge(v, w2)) continue;
        const bool w2_near_w = g.has_edge(w, w2);
        const ScopedSwap swap(work, {v, w, w2});
        const Vertex new_dist = distance(work, v, w, ws);
        // Old distance was 1; the lemma promises an increase of ≥ 2
        // (new ≥ 3), or ≥ 1 (new ≥ 2) when w2 ∈ N(w).
        const Vertex required = w2_near_w ? 2 : 3;
        if (new_dist < required) return false;
      }
    }
  }
  return true;
}

Lemma10Result lemma10_cheap_edge(const Graph& g, Vertex u) {
  g.check_vertex(u);
  Lemma10Result result;
  const Vertex n = g.num_vertices();
  if (n < 2) {
    result.diameter_branch = true;
    return result;
  }
  const double lg_n = std::log2(static_cast<double>(n));
  const Vertex diam = diameter(g);
  if (diam != kInfDist && static_cast<double>(diam) <= 2.0 * lg_n) {
    result.diameter_branch = true;
    return result;
  }

  BfsWorkspace ws;
  (void)bfs(g, u, ws);
  const std::vector<Vertex> dist_u = ws.dist();
  const double budget = 2.0 * n * (1.0 + lg_n);

  Graph work = g;
  std::optional<CheapEdge> best;
  for (const auto& [x, y] : g.edges()) {
    // Orient so the endpoint near u is x (the lemma requires d(u,x) ≤ lg n).
    for (const auto& [from, to] : {std::pair<Vertex, Vertex>{x, y}, {y, x}}) {
      if (static_cast<double>(dist_u[from]) > lg_n) continue;
      const std::uint64_t before = bfs(work, from, ws).dist_sum;
      work.remove_edge(from, to);
      const BfsResult after = bfs(work, from, ws);
      work.add_edge(from, to);
      if (!after.spans(n)) continue;  // bridge: infinite removal cost
      const std::uint64_t cost = after.dist_sum - before;
      if (static_cast<double>(cost) <= budget && (!best || cost < best->removal_cost)) {
        best = CheapEdge{from, to, cost};
      }
    }
  }
  result.cheap_edge = best;
  return result;
}

bool corollary11_insertion_gain_bound(const Graph& g) {
  const DistanceMatrix dm(g);
  if (!dm.connected()) return true;  // vacuous
  const Vertex n = g.num_vertices();
  if (n < 2) return true;
  const double cap = 5.0 * n * std::log2(static_cast<double>(n));
  for (Vertex u = 0; u < n; ++u) {
    const auto du = dm.row(u);
    for (Vertex v = 0; v < n; ++v) {
      if (u == v || g.has_edge(u, v)) continue;
      const auto dv = dm.row(v);
      std::uint64_t gain = 0;
      for (Vertex x = 0; x < n; ++x) {
        const Vertex via = static_cast<Vertex>(1 + dv[x]);
        if (via < du[x]) gain += du[x] - via;
      }
      if (static_cast<double>(gain) > cap) return false;
    }
  }
  return true;
}

}  // namespace bncg
