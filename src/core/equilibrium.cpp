#include "core/equilibrium.hpp"

#include <algorithm>

#include "core/certify_sharded.hpp"
#include "core/swap_engine.hpp"
#include "graph/apsp.hpp"
#include "graph/metrics.hpp"
#include "util/thread_pool.hpp"

namespace bncg {

namespace {

/// Shared body for the per-agent sum-model scans (brute-force oracle).
/// Works on a private copy of the graph so tentative swaps never touch the
/// caller's instance. `stop_at_first` returns the first improving swap
/// instead of the best.
std::optional<Deviation> sum_deviation_impl(const Graph& g, Vertex v, BfsWorkspace& ws,
                                            bool stop_at_first,
                                            std::uint64_t* moves_checked = nullptr) {
  g.check_vertex(v);
  Graph work = g;
  const Vertex n = work.num_vertices();
  const std::uint64_t old_cost = vertex_cost(work, v, UsageCost::Sum, ws);

  std::optional<Deviation> best;
  // Copy the neighbor list: ScopedSwap mutates adjacency during iteration.
  const std::vector<Vertex> nbrs(work.neighbors(v).begin(), work.neighbors(v).end());
  for (const Vertex w : nbrs) {
    for (Vertex w2 = 0; w2 < n; ++w2) {
      // Pure deletions (w2 adjacent or w2 == w) never decrease a distance
      // sum, so the sum model only scans swaps introducing a new edge.
      if (w2 == v || w2 == w || work.has_edge(v, w2)) continue;
      if (moves_checked != nullptr) ++*moves_checked;
      const ScopedSwap swap(work, {v, w, w2});
      const std::uint64_t new_cost = vertex_cost(work, v, UsageCost::Sum, ws);
      if (new_cost >= old_cost) continue;
      if (!best || new_cost < best->cost_after) {
        best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
        if (stop_at_first) return best;
      }
    }
  }
  return best;
}

/// Shared body for the per-agent max-model scans (brute-force oracle). Uses
/// the bounded-BFS early exit: a swap improves iff the whole graph is
/// reachable from v within old_ecc − 1 after the swap, and that same
/// truncated traversal already yields the exact new eccentricity.
std::optional<Deviation> max_deviation_impl(const Graph& g, Vertex v, BfsWorkspace& ws,
                                            bool stop_at_first, bool include_deletions,
                                            std::uint64_t* moves_checked = nullptr) {
  g.check_vertex(v);
  Graph work = g;
  const Vertex n = work.num_vertices();
  const std::uint64_t old_cost = vertex_cost(work, v, UsageCost::Max, ws);

  std::optional<Deviation> best;
  const std::vector<Vertex> nbrs(work.neighbors(v).begin(), work.neighbors(v).end());
  for (const Vertex w : nbrs) {
    if (include_deletions) {
      // Deletion clause of max equilibrium: removing {v, w} must *strictly*
      // increase v's local diameter. Equal cost is already a violation.
      if (moves_checked != nullptr) ++*moves_checked;
      work.remove_edge(v, w);
      const std::uint64_t del_cost = vertex_cost(work, v, UsageCost::Max, ws);
      work.add_edge(v, w);
      if (del_cost <= old_cost) {
        const Deviation dev{{v, w, w}, old_cost, del_cost, Deviation::Kind::NonCriticalDelete};
        if (!best || dev.cost_after < best->cost_after) best = dev;
        if (stop_at_first) return best;
      }
    }
    for (Vertex w2 = 0; w2 < n; ++w2) {
      // Swapping onto an existing edge is a deletion; deletions never
      // decrease eccentricity, so only fresh edges can improve.
      if (w2 == v || w2 == w || work.has_edge(v, w2)) continue;
      if (moves_checked != nullptr) ++*moves_checked;
      const ScopedSwap swap(work, {v, w, w2});
      std::optional<std::uint64_t> bounded;
      if (old_cost == kInfCost) {
        const std::uint64_t c = vertex_cost(work, v, UsageCost::Max, ws);
        if (c != kInfCost) bounded = c;
      } else {
        bounded = vertex_cost_within(work, v, UsageCost::Max, old_cost - 1, ws);
      }
      if (!bounded) continue;
      const std::uint64_t new_cost = *bounded;
      if (!best || new_cost < best->cost_after ||
          (best->kind == Deviation::Kind::NonCriticalDelete &&
           new_cost <= best->cost_after)) {
        best = Deviation{{v, w, w2}, old_cost, new_cost, Deviation::Kind::ImprovingSwap};
        if (stop_at_first) return best;
      }
    }
  }
  return best;
}

/// Generic parallel certifier: runs `scan(vertex)` for every vertex, keeping
/// the deviation with the smallest post-move cost. Per-agent results are
/// folded serially so the witness tie-break (earliest agent among equal
/// cost_after) is deterministic under any lane count; per-lane move counts
/// (padded — they're bumped per candidate) sum commutatively. The grain
/// follows work_chunks over one BFS per candidate swap.
template <typename ScanFn>
EquilibriumCertificate certify_impl(const Graph& g, ScanFn scan) {
  const Vertex n = g.num_vertices();
  EquilibriumCertificate cert;
  std::uint64_t moves = 0;
  std::vector<std::optional<Deviation>> per_agent(n);

  ThreadPool& pool = ThreadPool::global();
  struct alignas(64) LaneCount {
    std::uint64_t moves = 0;
  };
  std::vector<LaneCount> lane_moves(pool.size());
  std::uint64_t swaps = 0;
  for (Vertex v = 0; v < n; ++v) swaps += std::uint64_t{g.degree(v)} * (n - 1 - g.degree(v));
  const std::uint64_t chunks =
      work_chunks(swaps * (n + 2 * std::uint64_t{g.num_edges()}), pool.size());
  {
    std::vector<BfsWorkspace> ws(pool.size());
    pool.parallel_for(n, (n + chunks - 1) / chunks, [&](std::uint64_t v, unsigned tid) {
      per_agent[v] = scan(static_cast<Vertex>(v), ws[tid], lane_moves[tid].moves);
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

}  // namespace

namespace naive {

std::optional<Deviation> best_sum_deviation(const Graph& g, Vertex v, BfsWorkspace& ws) {
  return sum_deviation_impl(g, v, ws, /*stop_at_first=*/false);
}

std::optional<Deviation> first_sum_deviation(const Graph& g, Vertex v, BfsWorkspace& ws) {
  return sum_deviation_impl(g, v, ws, /*stop_at_first=*/true);
}

std::optional<Deviation> best_max_deviation(const Graph& g, Vertex v, BfsWorkspace& ws,
                                            bool include_deletions) {
  return max_deviation_impl(g, v, ws, /*stop_at_first=*/false, include_deletions);
}

std::optional<Deviation> first_max_deviation(const Graph& g, Vertex v, BfsWorkspace& ws,
                                             bool include_deletions) {
  return max_deviation_impl(g, v, ws, /*stop_at_first=*/true, include_deletions);
}

EquilibriumCertificate certify_sum_equilibrium(const Graph& g) {
  return certify_impl(g, [&g](Vertex v, BfsWorkspace& ws, std::uint64_t& moves) {
    return sum_deviation_impl(g, v, ws, /*stop_at_first=*/false, &moves);
  });
}

EquilibriumCertificate certify_max_equilibrium(const Graph& g) {
  return certify_impl(g, [&g](Vertex v, BfsWorkspace& ws, std::uint64_t& moves) {
    return max_deviation_impl(g, v, ws, /*stop_at_first=*/false, /*include_deletions=*/true,
                              &moves);
  });
}

}  // namespace naive

std::optional<Deviation> best_sum_deviation(const Graph& g, Vertex v, BfsWorkspace& ws) {
  if (force_naive_requested()) return naive::best_sum_deviation(g, v, ws);
  SwapEngine engine(g);
  return engine.best_deviation(v, UsageCost::Sum);
}

std::optional<Deviation> first_sum_deviation(const Graph& g, Vertex v, BfsWorkspace& ws) {
  if (force_naive_requested()) return naive::first_sum_deviation(g, v, ws);
  SwapEngine engine(g);
  return engine.first_deviation(v, UsageCost::Sum);
}

std::optional<Deviation> best_max_deviation(const Graph& g, Vertex v, BfsWorkspace& ws) {
  if (force_naive_requested()) return naive::best_max_deviation(g, v, ws);
  SwapEngine engine(g);
  return engine.best_deviation(v, UsageCost::Max);
}

std::optional<Deviation> first_max_deviation(const Graph& g, Vertex v, BfsWorkspace& ws,
                                             bool include_deletions) {
  if (force_naive_requested()) return naive::first_max_deviation(g, v, ws, include_deletions);
  SwapEngine engine(g);
  return engine.first_deviation(v, UsageCost::Max, include_deletions);
}

EquilibriumCertificate certify_sum_equilibrium(const Graph& g) {
  if (force_naive_requested()) return naive::certify_sum_equilibrium(g);
  return certify_sharded(g, UsageCost::Sum, /*include_deletions=*/false).certificate;
}

EquilibriumCertificate certify_max_equilibrium(const Graph& g) {
  if (force_naive_requested()) return naive::certify_max_equilibrium(g);
  return certify_sharded(g, UsageCost::Max, /*include_deletions=*/true).certificate;
}

bool is_sum_equilibrium(const Graph& g) { return certify_sum_equilibrium(g).is_equilibrium; }

bool is_max_equilibrium(const Graph& g) { return certify_max_equilibrium(g).is_equilibrium; }

bool is_deletion_critical(const Graph& g) {
  // Removing {u, v} must strictly increase *both* endpoints' local
  // diameters. Disconnecting deletions count as +∞ and therefore pass.
  // One masked-APSP row read per endpoint on the CSR snapshot.
  std::vector<Vertex> base_ecc = eccentricities(g);
  if (!force_naive_requested()) {
    const CsrGraph csr(g);
    BatchBfsWorkspace ws;
    std::vector<std::uint16_t> dist(g.num_vertices());
    for (const auto& [u, v] : g.edges()) {
      if (base_ecc[u] == kInfDist || base_ecc[v] == kInfDist) return false;  // disconnected
      const MaskedEdge mask{u, v};
      const BfsResult ru = csr_bfs(csr, u, mask, dist.data(), ws);
      const std::uint64_t ecc_u = ru.spans(csr.num_vertices()) ? ru.ecc : kInfCost;
      if (ecc_u <= base_ecc[u]) return false;
      const BfsResult rv = csr_bfs(csr, v, mask, dist.data(), ws);
      const std::uint64_t ecc_v = rv.spans(csr.num_vertices()) ? rv.ecc : kInfCost;
      if (ecc_v <= base_ecc[v]) return false;
    }
    return true;
  }
  Graph work = g;
  BfsWorkspace ws;
  for (const auto& [u, v] : g.edges()) {
    work.remove_edge(u, v);
    const std::uint64_t ecc_u = vertex_cost(work, u, UsageCost::Max, ws);
    const std::uint64_t ecc_v = vertex_cost(work, v, UsageCost::Max, ws);
    work.add_edge(u, v);
    if (base_ecc[u] == kInfDist || base_ecc[v] == kInfDist) return false;  // disconnected input
    if (ecc_u <= base_ecc[u] || ecc_v <= base_ecc[v]) return false;
  }
  return true;
}

bool is_insertion_stable(const Graph& g) {
  // After inserting {v, w}, the distance from v to x is
  // min(d(v,x), 1 + d(w,x)) — a shortest path uses the new edge at most
  // once. One APSP pass answers every candidate insertion with no mutation.
  const DistanceMatrix dm(g);
  if (!dm.connected()) return false;
  const Vertex n = g.num_vertices();
  std::vector<Vertex> ecc(n);
  for (Vertex v = 0; v < n; ++v) ecc[v] = dm.eccentricity(v);

  for (Vertex v = 0; v < n; ++v) {
    const auto dv = dm.row(v);
    for (Vertex w = v + 1; w < n; ++w) {
      if (g.has_edge(v, w)) continue;
      const auto dw = dm.row(w);
      Vertex new_ecc_v = 0;
      Vertex new_ecc_w = 0;
      for (Vertex x = 0; x < n; ++x) {
        new_ecc_v = std::max(new_ecc_v, std::min(dv[x], static_cast<Vertex>(1 + dw[x])));
        new_ecc_w = std::max(new_ecc_w, std::min(dw[x], static_cast<Vertex>(1 + dv[x])));
      }
      if (new_ecc_v < ecc[v] || new_ecc_w < ecc[w]) return false;
    }
  }
  return true;
}

bool vertex_is_sum_stable(const Graph& g, Vertex v) {
  BfsWorkspace ws;
  return !first_sum_deviation(g, v, ws).has_value();
}

bool vertex_is_max_stable(const Graph& g, Vertex v) {
  BfsWorkspace ws;
  return !first_max_deviation(g, v, ws, /*include_deletions=*/true).has_value();
}

}  // namespace bncg
