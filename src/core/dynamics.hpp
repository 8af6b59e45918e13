// Best-response swap dynamics.
//
// The process the paper's agents actually run: repeatedly, some vertex
// performs an improving edge swap until no agent has one (a swap
// equilibrium), or a move budget is exhausted. Swap dynamics preserve the
// edge count — the basic game has no α and edges can only be relocated —
// so the reachable equilibria live inside the fixed-m configuration space.
//
// Agent scans run on the delta-evaluation SwapEngine (core/swap_engine.hpp),
// re-snapshotted after every accepted move, at every n. Its moves are
// bit-identical to the naive BFS-per-candidate oracle's, so a naive replay
// reproduces every trajectory (Dynamics.TrajectoriesMatchNaiveReplay).
//
// Neither version admits an obvious potential function, so convergence is
// not guaranteed a priori; the loop caps the number of moves and reports
// honestly whether it stopped at an equilibrium (verified by a final
// exhaustive certification) or at the budget.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dist_provider.hpp"
#include "core/equilibrium.hpp"
#include "core/usage_cost.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace bncg {

/// Which agent moves next.
enum class Scheduler {
  RoundRobin,     ///< fixed cyclic vertex order, repeated passes
  RandomOrder,    ///< fresh uniformly shuffled order every pass
  GreedyGlobal,   ///< the globally most-improving swap each step
};

/// Which of an agent's improving swaps is taken.
enum class MovePolicy {
  FirstImprovement,  ///< first improving swap in scan order (fast)
  BestImprovement,   ///< the agent's most-improving swap
};

/// Dynamics configuration. Defaults model the sum game with round-robin
/// first-improvement agents — the cheapest natural process.
struct DynamicsConfig {
  UsageCost cost = UsageCost::Sum;
  Scheduler scheduler = Scheduler::RoundRobin;
  MovePolicy policy = MovePolicy::FirstImprovement;
  /// Hard cap on executed swaps (cycling guard).
  std::uint64_t max_moves = 100'000;
  /// In the max model, also perform cost-neutral deletions (they strictly
  /// shrink the edge set, driving toward deletion-critical graphs). Sum-model
  /// deletions are always strictly harmful, so this flag is ignored there.
  bool allow_neutral_deletions = false;
  /// Seed for RandomOrder shuffles.
  std::uint64_t seed = 0x5eed;
  /// Record (move index, social cost, diameter) after every move. Costs an
  /// extra APSP-lite pass per move; enable for plots, not for sweeps.
  bool record_trace = false;
  /// Track every visited configuration (graph6-encoded) and flag the first
  /// revisit. Neither usage cost admits a known potential function, so
  /// best-response cycles are a genuine open possibility — this is the
  /// instrument for probing it. Memory: O(moves · n²/6) bytes.
  bool detect_revisits = false;
  /// Shared resource knobs (core/dist_provider.hpp) of the SwapEngine tier.
  /// Purely speed/memory preferences; moves are width-independent.
  ResourceConfig resources;
};

/// One point of the recorded trajectory.
struct TraceEntry {
  std::uint64_t move = 0;          ///< number of moves executed so far
  std::uint64_t social_cost = 0;   ///< Σ_v usage cost (sum model: Σ dist sums)
  Vertex diameter = 0;             ///< graph diameter after the move
};

/// Outcome of a dynamics run.
struct DynamicsResult {
  Graph graph{0};                 ///< final configuration
  bool converged = false;         ///< true ⇔ final graph passed the certifier
  std::uint64_t moves = 0;        ///< swaps (and neutral deletions) executed
  std::uint64_t passes = 0;       ///< completed scheduler passes
  std::vector<TraceEntry> trace;  ///< nonempty iff record_trace
  /// With detect_revisits: true iff some configuration was reached twice
  /// (a best-response cycle), and the move index of the first revisit.
  bool revisited = false;
  std::uint64_t first_revisit_move = 0;
};

/// Runs best-response dynamics from `start` until equilibrium or budget.
/// The start graph must be connected (usage costs are finite).
[[nodiscard]] DynamicsResult run_dynamics(Graph start, const DynamicsConfig& config);

/// Social cost under the given model: Σ_v cost(v). (Sum model: twice the
/// sum of pairwise distances; max model: Σ_v ecc(v).)
[[nodiscard]] std::uint64_t social_cost(const Graph& g, UsageCost model);

}  // namespace bncg
