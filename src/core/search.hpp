// Equilibrium search: tools for *finding* equilibria with prescribed
// structure, not just certifying given ones.
//
// Motivation: the reproduction found that the paper's literal Figure 3
// instance admits improving swaps (see gen/paper.hpp). Theorem 5 is
// existential, so the library provides the machinery that re-establishes it:
//  * sum_unrest / max_unrest — quantitative "distance from equilibrium"
//    potentials (total improvement available across agents; 0 ⇔ the matching
//    certifier passes);
//  * anneal_equilibrium — simulated annealing over edge toggles that
//    minimizes unrest subject to a diameter constraint, in either usage-cost
//    model (this is how diameter3_sum_equilibrium_n8() was discovered).
//    One loop, two evaluators, picked by the model and n: sum anneal at
//    n ≤ kSearchStateAutoMaxVertices evaluates proposals incrementally
//    through core/search_state.hpp (cached per-agent masked distance
//    matrices updated per toggle, with the R1 prune); everything else — max
//    anneal at every n, sum anneal above the cap — evaluates each proposal
//    on one SwapEngine rebuilt on it, reading the shape screen off its
//    shared slab and pooling the agent scans over the lanes. The evaluator
//    never changes a trajectory (seeded runs are pinned in
//    tests/test_search.cpp);
//  * exhaustive_diameter3_sum_equilibrium — complete enumeration of all
//    2^C(n,2) labelled graphs for small n, establishing minimality results
//    (no diameter-3 sum equilibrium exists on ≤ 7 vertices).
#pragma once

#include <cstdint>
#include <optional>

#include "core/dist_provider.hpp"
#include "core/usage_cost.hpp"
#include "graph/dist_width.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace bncg {

/// Σ_v (best available improvement of agent v's distance sum); 0 iff the
/// graph is a sum equilibrium. A natural progress measure for search.
/// Intended for connected graphs.
[[nodiscard]] std::uint64_t sum_unrest(const Graph& g);

/// Max-model counterpart: Σ_v max(1, best available improvement of agent
/// v's local diameter), where an agent with only a cost-neutral deletion
/// violation (the max-equilibrium deletion clause) contributes 1. Hence
/// 0 ⇔ the graph is a max equilibrium. Intended for connected graphs.
[[nodiscard]] std::uint64_t max_unrest(const Graph& g);

/// Configuration for the annealing search. A single `seed` drives every
/// random draw of a run (start nudging, proposal endpoints, Metropolis
/// acceptance), so identical configs give identical trajectories — at any
/// width, SIMD level and lane count.
struct AnnealConfig {
  Vertex target_diameter = 3;      ///< hard constraint on every accepted state
  std::uint64_t steps = 6000;      ///< edge-toggle proposals
  double initial_temperature = 3.0;
  double cooling = 0.9995;         ///< geometric cooling per step
  std::uint64_t seed = 0x5ea2c4;
  UsageCost cost = UsageCost::Sum;  ///< which unrest is annealed
  /// Shared resource knobs (core/dist_provider.hpp). Width is purely a
  /// speed/memory preference: trajectories are identical at any width — the
  /// state promotes u8 → u16 exactly, and the engine falls back per agent.
  /// Under Auto the state's width is seeded from the run's own diameter
  /// constraint through WidthAndBudgetPolicy (the nudge phase proves the
  /// diameter, so the state's ecc-screen probe is redundant here).
  ResourceConfig resources;
};

/// Counters of one annealing run (filled when a stats sink is passed).
struct AnnealStats {
  std::uint64_t proposals = 0;   ///< toggles drawn (self-loops excluded)
  std::uint64_t filtered = 0;    ///< rejected by the connectivity/diameter screen
  std::uint64_t evaluated = 0;   ///< proposals whose unrest was computed
  std::uint64_t accepted = 0;    ///< proposals taken by the Metropolis rule
  std::uint64_t final_unrest = 0;
  std::uint64_t final_fingerprint = 0;  ///< graph_fingerprint of the graph the run ended on
  /// Width the incremental state finished at and how many u8 → u16 cap
  /// promotions the run crossed. Engine-evaluated runs report the width
  /// the engine preferred on the last graph it scanned and no promotions
  /// (the engine falls back per agent instead; under BNCG_FORCE_NAIVE
  /// there is no engine and the width stays U16).
  DistWidth dist_width = DistWidth::U16;
  std::uint64_t width_promotions = 0;
};

/// Anneals from `start` toward a zero-unrest graph of the target diameter in
/// the configured usage-cost model. Returns the reached graph when unrest
/// hit 0, nullopt otherwise. Proposals toggle a single edge; states that are
/// disconnected or off-diameter are rejected. Deterministic given the seed.
[[nodiscard]] std::optional<Graph> anneal_equilibrium(Graph start, const AnnealConfig& config,
                                                      AnnealStats* stats = nullptr);

/// Exhaustively decides whether any labelled graph on n vertices is a
/// connected diameter-3 sum equilibrium, returning the first found.
/// Enumerates all 2^C(n,2) edge subsets — feasible for n ≤ 7 (≈ 2M graphs).
/// Precondition: n ≤ 7 (guard against accidental exponential blowups).
[[nodiscard]] std::optional<Graph> exhaustive_diameter3_sum_equilibrium(Vertex n);

}  // namespace bncg
