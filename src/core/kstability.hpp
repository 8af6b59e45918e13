// Stability under k simultaneous edge insertions (Section 4 generalization).
//
// Theorem 12's d-dimensional construction is deletion-critical and stable
// when one agent may insert (or swap) up to d−1 edges at once, giving the
// Ω(n^{1/(k+1)}) diameter/computational-power trade-off. Because deletions
// never decrease any distance, stability under k *insertions* implies
// stability under k swaps; this module therefore decides the insertion
// question exactly.
//
// Decision procedure: after inserting edges v–w₁,…,v–w_k, the new distance
// from v to x is min(d(v,x), 1 + min_i d(w_i,x)) (a shortest path crosses v
// at most once, hence uses at most one inserted edge). The eccentricity of
// v drops below ecc(v) iff the far sphere F = {x : d(v,x) = ecc(v)} can be
// *covered* by k vertices w with d(w,x) ≤ ecc(v) − 2. That is an exact set
// cover instance, solved here by branch-and-bound on bitset coverage with
// dominance pruning — exact, and fast because |F| is small for the paper's
// constructions.
#pragma once

#include <optional>
#include <vector>

#include "graph/apsp.hpp"
#include "graph/graph.hpp"

namespace bncg {

/// Verdict for one vertex (or a whole graph).
struct KStabilityReport {
  bool stable = true;
  /// When unstable: the agent and the ≤ k insertion endpoints that lower
  /// its eccentricity (a machine-checkable witness).
  Vertex witness_vertex = 0;
  std::vector<Vertex> witness_endpoints;
  /// For swap_stability_at: neighbors of v whose edges the witness deletes
  /// (empty for pure-insertion analyses).
  std::vector<Vertex> witness_deletions;
};

/// Can agent `v` decrease its eccentricity by inserting ≤ k edges?
/// Exact. Requires a connected graph's distance matrix.
[[nodiscard]] KStabilityReport insertion_stability_at(const DistanceMatrix& dm, Vertex v,
                                                      Vertex k);

/// Graph-level single-agent form, on the SwapEngine k-insertion evaluator
/// (bit-identical verdict AND witness to bncg::naive::insertion_stability_at
/// — DESIGN.md §14).
[[nodiscard]] KStabilityReport insertion_stability_at(const Graph& g, Vertex v, Vertex k);

/// Checks every vertex; exact. O(n) cover instances. The engine shares one
/// batched APSP across all agents and parallelizes the per-agent
/// cover instances (serial fold — the witness is the earliest unstable
/// agent, identical to the naive sequential sweep at any thread count).
[[nodiscard]] KStabilityReport insertion_stability(const Graph& g, Vertex k);

/// Largest k in [0, k_max] such that vertex `v` cannot improve with ≤ k
/// insertions (0 means even one insertion helps). For vertex-transitive
/// graphs, one call characterizes the whole graph.
[[nodiscard]] Vertex max_tolerated_insertions(const DistanceMatrix& dm, Vertex v, Vertex k_max);

/// Graph-level engine form of max_tolerated_insertions: the engine builds
/// the agent's cover instance once and re-solves it at each budget.
[[nodiscard]] Vertex max_tolerated_insertions(const Graph& g, Vertex v, Vertex k_max);

/// Exact minimum set cover: the smallest number of candidate sets covering
/// the universe {0,…,universe−1}, or nullopt when not coverable at all.
/// Candidates are bitsets (universe bits, little-endian words). Exposed for
/// tests; branch-and-bound with most-constrained-element branching.
[[nodiscard]] std::optional<Vertex> min_cover_size(
    Vertex universe, const std::vector<std::vector<std::uint64_t>>& candidates, Vertex depth_cap);

/// One exact cover decision at a fixed budget: the selected candidate
/// indices (≤ budget of them) covering {0,…,universe−1}, or nullopt when no
/// such selection exists. This is THE cover solver both the naive oracles
/// and the SwapEngine k-move paths call, so selections — and therefore
/// witness_endpoints — are identical by construction on identical instances.
[[nodiscard]] std::optional<std::vector<std::size_t>> cover_select(
    Vertex universe, const std::vector<std::vector<std::uint64_t>>& sets, Vertex budget);

/// Stability under ≤ k simultaneous edge *swaps* at one vertex — the form
/// Theorem 12's statement actually mentions ("insertion (or swapping) of up
/// to d−1 edges"). A j-swap (j ≤ k) deletes j edges incident to v and
/// inserts j new ones. Deleting v's edges can lengthen other vertices'
/// paths (they may route through v), so swap stability does NOT reduce to
/// insertion stability syntactically; this decides it exactly by
/// enumerating deletion subsets (deg(v) choose j — cheap for the paper's
/// constant-degree constructions) and solving the induced cover instance in
/// each deleted graph. Moves that disconnect v are never improving (+∞).
[[nodiscard]] KStabilityReport swap_stability_at(const Graph& g, Vertex v, Vertex k);

/// Brute-force oracles: the original full-recompute implementations (one
/// DistanceMatrix per decision, one per deletion subset for swaps). The
/// differential suite tests/test_kstability_engine.cpp holds the engine
/// entry points above to byte-identical reports against them.
namespace naive {

[[nodiscard]] KStabilityReport insertion_stability_at(const Graph& g, Vertex v, Vertex k);
[[nodiscard]] KStabilityReport insertion_stability(const Graph& g, Vertex k);
[[nodiscard]] Vertex max_tolerated_insertions(const Graph& g, Vertex v, Vertex k_max);
[[nodiscard]] KStabilityReport swap_stability_at(const Graph& g, Vertex v, Vertex k);

}  // namespace naive

}  // namespace bncg
