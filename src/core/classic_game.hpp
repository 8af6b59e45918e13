// The classic α-parameterized network creation game (Fabrikant et al. [9])
// — the baseline the paper's model abstracts away from.
//
// Each vertex *buys* a set of incident edges at α each; connectivity is
// undirected regardless of who paid. cost(v) = α·|bought by v| + Σ_u d(v,u).
// Recognizing a full Nash equilibrium is NP-complete [9], so — exactly as
// the paper argues for computationally bounded agents — this implementation
// checks and plays the polynomial-time *greedy* deviations:
//
//   add     — buy one new edge v–w            (cost +α, distances shrink)
//   delete  — drop one owned edge v–w         (cost −α, distances grow)
//   swap    — redirect one owned edge v–w to v–w′ (α unchanged)
//
// A graph with ownership that admits none of these is a *greedy equilibrium*
// (a necessary condition for Nash). The swap move is α-independent — it is
// exactly the basic game's move — which is how the paper's results transfer
// to every α at once: a sum swap equilibrium is swap-stable here for all α.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/swap_engine.hpp"
#include "core/usage_cost.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace bncg {

/// The α values at which the current ownership state is a greedy
/// equilibrium, as a closed interval [lo, hi] (possibly empty) of the
/// α-axis: adds force α ≥ lo (below that some agent profitably buys an
/// edge), deletes force α ≤ hi, and swaps — α-independent — can rule out
/// every α at once. Thresholds are raw usage differences; membership applies
/// the same 1e-9 strictness margin as best_deviation, so contains(α) ⟺
/// is_greedy_equilibrium() at that α.
struct AlphaInterval {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  bool swap_blocked = false;
  [[nodiscard]] bool contains(double alpha) const noexcept {
    return !swap_blocked && lo - alpha <= 1e-9 && alpha - hi <= 1e-9;
  }
  [[nodiscard]] bool empty() const noexcept { return swap_blocked || lo - hi > 1e-9; }
};

/// A deviation in the α-game.
struct ClassicMove {
  enum class Type { Add, Delete, Swap };
  Type type = Type::Add;
  Vertex v = 0;         ///< deviating agent (buyer)
  Vertex w = 0;         ///< edge endpoint being added/deleted/removed
  Vertex w2 = 0;        ///< swap target (Swap only)
  double gain = 0.0;    ///< strict decrease of v's cost (> 0)
};

/// Game state: a graph plus who bought each edge.
class ClassicGame {
 public:
  /// Starts from `g`, assigning every edge's ownership to its lower-id
  /// endpoint (a neutral convention; ownership evolves through moves).
  ClassicGame(Graph g, double alpha);

  /// Starts with explicit ownership: owner[i] must be an endpoint of
  /// edges()[i] in the order returned by g.edges().
  ClassicGame(Graph g, double alpha, const std::vector<Vertex>& owners);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// Buyer of edge {u, v}. Precondition: edge exists.
  [[nodiscard]] Vertex owner(Vertex u, Vertex v) const;

  /// Number of edges bought by `v`.
  [[nodiscard]] Vertex edges_bought(Vertex v) const;

  /// cost(v) = α·bought(v) + Σ_u d(v, u); +∞ (as a huge double) when
  /// disconnected.
  [[nodiscard]] double vertex_cost(Vertex v, BfsWorkspace& ws) const;

  /// Social cost: α·m + Σ_v Σ_u d(v,u).
  [[nodiscard]] double social_cost() const;

  /// Best greedy deviation (add/delete/swap) for agent `v`; nullopt when
  /// none improves strictly. SwapEngine-backed (the repaired rows of G − v
  /// instead of one BFS per candidate) on a snapshot built for this call —
  /// identical moves, gains, and tie-breaks to best_deviation_naive
  /// (differential suite: tests/test_classic_game_engine.cpp).
  [[nodiscard]] std::optional<ClassicMove> best_deviation(Vertex v) const;

  /// The brute-force oracle: direct mutation + one BFS per candidate move.
  [[nodiscard]] std::optional<ClassicMove> best_deviation_naive(Vertex v, BfsWorkspace& ws) const;

  /// Engine-backed scan against a caller-provided snapshot of graph() —
  /// callers that loop agents (is_greedy_equilibrium, run_best_response)
  /// build the engine once per graph version instead of once per agent.
  [[nodiscard]] std::optional<ClassicMove> best_deviation_engine(const SwapEngine& engine,
                                                                 SwapEngine::Scratch& scratch,
                                                                 Vertex v) const;

  /// The α-interval of the current state (on one SwapEngine snapshot), and
  /// its naive BFS twin for differential testing. Engine and naive compute
  /// identical usage integers, so the interval endpoints are bit-identical
  /// doubles.
  [[nodiscard]] AlphaInterval alpha_equilibrium_interval() const;
  [[nodiscard]] AlphaInterval alpha_equilibrium_interval_naive() const;

  /// Applies a move (must be legal for the current state).
  void apply(const ClassicMove& move);

  /// True iff no agent has a greedy deviation. Poly-time; a *necessary*
  /// condition for Nash equilibrium.
  [[nodiscard]] bool is_greedy_equilibrium() const;

  /// Runs round-robin greedy best-response until quiescent or move budget.
  struct RunResult {
    bool converged = false;
    std::uint64_t moves = 0;
    std::uint64_t passes = 0;
  };
  RunResult run_best_response(std::uint64_t max_moves);

 private:
  [[nodiscard]] static std::uint64_t key(Vertex u, Vertex v) {
    const auto [lo, hi] = std::minmax(u, v);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  Graph graph_;
  double alpha_;
  std::unordered_map<std::uint64_t, Vertex> owner_;
};

/// Reference social costs of the two canonical networks (the known optima
/// of the α-game: the clique for α ≤ 2 and the star for α ≥ 2 [9]).
[[nodiscard]] double star_social_cost(Vertex n, double alpha);
[[nodiscard]] double clique_social_cost(Vertex n, double alpha);
[[nodiscard]] double optimal_social_cost(Vertex n, double alpha);

}  // namespace bncg
