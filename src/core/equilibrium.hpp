// Equilibrium definitions and polynomial-time certifiers.
//
// A key point of the paper is that, unlike Nash equilibria of the classic
// α-game (NP-complete to recognize [9]), swap equilibria can be verified in
// polynomial time by exhaustively trying every swap. These certifiers do
// exactly that and return a *witness* (the best improving deviation) when
// the graph is not in equilibrium, so a verdict is a machine-checked proof
// for the instance.
//
// Definitions implemented (verbatim from the problem statement, §1):
//  * sum equilibrium      — no swap decreases the swapper's distance sum.
//  * max equilibrium      — no swap decreases the swapper's local diameter,
//                           and deleting any edge strictly increases the
//                           local diameter of the deleting endpoint.
//  * deletion-critical    — deleting any edge strictly increases the local
//                           diameter of *both* endpoints.
//  * insertion-stable     — inserting any edge decreases neither endpoint's
//                           local diameter.
// insertion-stable ∧ deletion-critical ⇒ max equilibrium (the paper's
// lower-bound constructions satisfy the stronger pair; tests check the
// implication through these functions).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/swap.hpp"
#include "core/usage_cost.hpp"
#include "graph/graph.hpp"

namespace bncg {

/// An improving deviation found by a certifier: applying `swap` changes the
/// swapping agent's usage cost from `cost_before` to `cost_after` (strictly
/// smaller, or equal for the neutral deletions that violate max-equilibrium's
/// deletion clause — see `kind`).
struct Deviation {
  enum class Kind {
    ImprovingSwap,     ///< a swap strictly decreasing the agent's usage cost
    NonCriticalDelete  ///< max model: a deletion that fails to strictly
                       ///< increase the deleter's local diameter
  };
  EdgeSwap swap;
  std::uint64_t cost_before = 0;
  std::uint64_t cost_after = 0;
  Kind kind = Kind::ImprovingSwap;
};

/// Exhaustive certification outcome.
struct EquilibriumCertificate {
  bool is_equilibrium = false;
  /// The most-improving deviation when not in equilibrium (empty otherwise).
  std::optional<Deviation> witness;
  /// Number of candidate moves evaluated (for complexity reporting).
  std::uint64_t moves_checked = 0;
};

/// Finds the best improving swap for a *single* agent `v` in the sum model;
/// nullopt when v has none. O(deg(v) · n) BFS runs.
[[nodiscard]] std::optional<Deviation> best_sum_deviation(const Graph& g, Vertex v,
                                                          BfsWorkspace& ws);

/// First (not best) improving swap for agent `v` in the sum model.
[[nodiscard]] std::optional<Deviation> first_sum_deviation(const Graph& g, Vertex v,
                                                           BfsWorkspace& ws);

/// Finds the best improving swap for agent `v` in the max model (swap moves
/// only; deletion-criticality is checked by the certifier separately).
[[nodiscard]] std::optional<Deviation> best_max_deviation(const Graph& g, Vertex v,
                                                          BfsWorkspace& ws);

/// First improving swap for agent `v` in the max model. Also reports
/// neutral deletions (Kind::NonCriticalDelete) when `include_deletions`.
[[nodiscard]] std::optional<Deviation> first_max_deviation(const Graph& g, Vertex v,
                                                           BfsWorkspace& ws,
                                                           bool include_deletions = false);

/// Exhaustively certifies sum equilibrium through certify_sharded (the
/// naive oracle under BNCG_FORCE_NAIVE).
[[nodiscard]] EquilibriumCertificate certify_sum_equilibrium(const Graph& g);

/// Exhaustively certifies max equilibrium: swap stability for every agent
/// plus the strict-deletion clause for every edge endpoint. Same routing as
/// certify_sum_equilibrium.
[[nodiscard]] EquilibriumCertificate certify_max_equilibrium(const Graph& g);

/// Convenience predicates.
[[nodiscard]] bool is_sum_equilibrium(const Graph& g);
[[nodiscard]] bool is_max_equilibrium(const Graph& g);

/// Deleting any edge strictly increases the local diameter of both
/// endpoints (uses the +∞ convention for disconnecting deletions).
[[nodiscard]] bool is_deletion_critical(const Graph& g);

/// Inserting any absent edge decreases neither endpoint's local diameter.
/// Implemented on the all-pairs matrix: the post-insertion distance from v
/// via new edge vw is min(d(v,x), 1 + d(w,x)) — no graph mutation needed.
[[nodiscard]] bool is_insertion_stable(const Graph& g);

/// Single-vertex variants exploiting symmetry: for vertex-transitive
/// constructions (Fig. 4, Cayley graphs) checking one representative vertex
/// per orbit suffices. These check exactly the given agent.
[[nodiscard]] bool vertex_is_sum_stable(const Graph& g, Vertex v);
[[nodiscard]] bool vertex_is_max_stable(const Graph& g, Vertex v);

/// Brute-force oracle: one scoped mutation plus one full BFS per candidate
/// move. The public entry points above route through the delta-evaluation
/// SwapEngine (core/swap_engine.hpp) at every size unless BNCG_FORCE_NAIVE
/// is set; these are the reference implementations the engine is
/// differential-tested against.
namespace naive {
[[nodiscard]] std::optional<Deviation> best_sum_deviation(const Graph& g, Vertex v,
                                                          BfsWorkspace& ws);
[[nodiscard]] std::optional<Deviation> first_sum_deviation(const Graph& g, Vertex v,
                                                           BfsWorkspace& ws);
/// Best max-model deviation; with `include_deletions`, cost-neutral
/// deletions (Kind::NonCriticalDelete) compete too — the oracle behind
/// max_unrest and the incremental search state's differential tests.
[[nodiscard]] std::optional<Deviation> best_max_deviation(const Graph& g, Vertex v,
                                                          BfsWorkspace& ws,
                                                          bool include_deletions = false);
[[nodiscard]] std::optional<Deviation> first_max_deviation(const Graph& g, Vertex v,
                                                           BfsWorkspace& ws,
                                                           bool include_deletions = false);
[[nodiscard]] EquilibriumCertificate certify_sum_equilibrium(const Graph& g);
[[nodiscard]] EquilibriumCertificate certify_max_equilibrium(const Graph& g);
}  // namespace naive

}  // namespace bncg
