// Specialized sum-game machinery for trees (Section 2.1).
//
// On a tree, a swap by agent v of edge va detaches the subtree T_a hanging
// off a and re-attaches it at the new neighbor; v's best response is to
// re-attach at the 1-median of T_a. Everything reduces to subtree distance
// sums, computable by the classic two-pass rerooting technique in O(n) —
// versus O(deg·n·m) per agent for the generic BFS engine. bench_ablation
// measures the gap; Theorem 1 (equilibrium trees are stars) emerges from
// these dynamics directly.
//
// The module also exposes the exact inequality pair from the Theorem 1
// proof (s_b + s_w ≤ s_a and s_v + s_a ≤ s_b along a diametral path), whose
// joint infeasibility is the paper's contradiction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace bncg {

/// Distance sums Σ_u d(v, u) for every vertex of a tree; O(n) two-pass
/// rerooting. Precondition: g is a tree (checked).
[[nodiscard]] std::vector<std::uint64_t> tree_distance_sums(const Graph& tree);

/// 1-median: vertex minimizing the distance sum (lowest id on ties).
[[nodiscard]] Vertex tree_one_median(const Graph& tree);

/// A best tree swap for one agent.
struct TreeMove {
  Vertex v = 0;             ///< the swapping agent
  Vertex old_neighbor = 0;  ///< detached edge endpoint
  Vertex new_neighbor = 0;  ///< re-attachment point (1-median of the subtree)
  std::uint64_t gain = 0;   ///< strict decrease of v's distance sum
};

/// Reusable buffers for best_tree_deviation sweeps. The one-shot overload
/// pays ~8 size-n allocations per call, which dominates its O(n) arithmetic
/// on repeated certification sweeps; threading one scratch through a sweep
/// (as run_tree_dynamics and bench_engine_json do) amortizes them to zero.
/// A default-constructed scratch fits any tree — buffers grow on demand.
struct TreeGameScratch {
  std::vector<Vertex> order, parent, croot, median;
  std::vector<std::uint64_t> size, down, sums;
};

/// Best improving tree swap for agent v, or nullopt when v is stable.
/// A single-rooting O(n) rerooting sweep (all of v's detachable subtrees
/// share one rooted pass, no BFS, no induced subgraphs), with moves, gains
/// and tie-breaks identical to the oracle below
/// (tests/test_tree_game_engine.cpp). Precondition: tree.
[[nodiscard]] std::optional<TreeMove> best_tree_deviation(const Graph& tree, Vertex v);

/// Scratch-reusing variant for sweeps over many agents or dynamics steps.
[[nodiscard]] std::optional<TreeMove> best_tree_deviation(const Graph& tree, Vertex v,
                                                          TreeGameScratch& scratch);

namespace naive {
/// The oracle: per-neighbor component BFS + induced subgraph + two-pass
/// sums — O(deg(v) · n) with allocation-heavy constants.
[[nodiscard]] std::optional<TreeMove> best_tree_deviation(const Graph& tree, Vertex v);
}  // namespace naive

/// Outcome of the specialized tree dynamics.
struct TreeDynamicsResult {
  Graph tree{0};
  std::uint64_t moves = 0;
  std::uint64_t passes = 0;
  bool converged = false;
};

/// Round-robin best-response dynamics using the O(n) tree engine. By
/// Theorem 1 the fixed points are exactly the stars; the result's graph has
/// diameter ≤ 2 whenever converged.
[[nodiscard]] TreeDynamicsResult run_tree_dynamics(Graph tree, std::uint64_t max_moves = 1'000'000);

/// The Theorem 1 proof object: for a tree of diameter ≥ 3 and a distance-3
/// pair v → a → b → w on a shortest path, the two subtree-size inequalities
/// cannot both hold, so one endpoint has a strictly improving swap.
struct Theorem1Witness {
  Vertex v = 0, a = 0, b = 0, w = 0;
  std::uint64_t sv = 0, sa = 0, sb = 0, sw = 0;  ///< subtree sizes as in Fig. 1
  bool v_swap_wins = false;                      ///< s_b + s_w > s_a
  bool w_swap_wins = false;                      ///< s_v + s_a > s_b
};

/// Builds the witness for any tree of diameter ≥ 3 (nullopt for diameter
/// ≤ 2). The paper's Theorem 1 asserts v_swap_wins || w_swap_wins.
[[nodiscard]] std::optional<Theorem1Witness> theorem1_witness(const Graph& tree);

}  // namespace bncg
