#include "core/search.hpp"

#include <cmath>

#include "core/equilibrium.hpp"
#include "core/search_state.hpp"
#include "core/swap_engine.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"

namespace bncg {

namespace {

/// Unrest contribution of one agent's best deviation: the improvement when
/// there is one (≥ 1 for improving swaps), and a floor of 1 for violations
/// that improve nothing (the max model's cost-neutral deletions) — so every
/// certifier violation is visible in the potential. Matches
/// SearchState::unrest term for term.
std::uint64_t deviation_unrest(const std::optional<Deviation>& dev) {
  if (!dev) return 0;
  const std::uint64_t gain =
      dev->cost_before > dev->cost_after ? dev->cost_before - dev->cost_after : 0;
  return std::max<std::uint64_t>(1, gain);
}

}  // namespace

std::uint64_t sum_unrest(const Graph& g) {
  std::uint64_t total = 0;
  if (!force_naive_requested()) {
    // One CSR snapshot serves every agent's scan (the public per-agent API
    // would rebuild it n times).
    SwapEngine engine(g);
    SwapEngine::Scratch scratch;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      total += deviation_unrest(engine.best_deviation(v, UsageCost::Sum, scratch));
    }
    return total;
  }
  BfsWorkspace ws;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    total += deviation_unrest(naive::best_sum_deviation(g, v, ws));
  }
  return total;
}

std::uint64_t max_unrest(const Graph& g) {
  std::uint64_t total = 0;
  if (!force_naive_requested()) {
    SwapEngine engine(g);
    SwapEngine::Scratch scratch;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      total += deviation_unrest(
          engine.best_deviation(v, UsageCost::Max, scratch, /*include_deletions=*/true));
    }
    return total;
  }
  BfsWorkspace ws;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    total += deviation_unrest(
        naive::best_max_deviation(g, v, ws, /*include_deletions=*/true));
  }
  return total;
}

std::optional<Graph> anneal_equilibrium(Graph start, const AnnealConfig& config,
                                        AnnealStats* stats) {
  const Vertex n = start.num_vertices();
  BNCG_REQUIRE(n >= 2, "search needs at least two vertices");
  AnnealStats local_stats;
  AnnealStats& st = stats != nullptr ? *stats : local_stats;
  st = AnnealStats{};  // reset up front so every exit reports this run
  Xoshiro256ss rng(config.seed);

  // Nudge the start onto the diameter constraint if it is off it: add edges
  // while too spread out, remove removable edges while too tight.
  int guard = 0;
  while (diameter(start) != config.target_diameter && guard++ < 4000) {
    const Vertex u = static_cast<Vertex>(rng.below(n));
    const Vertex v = static_cast<Vertex>(rng.below(n));
    if (u == v) continue;
    const Vertex d = diameter(start);
    if (d == kInfDist || d > config.target_diameter) {
      start.add_edge_if_absent(u, v);
    } else if (start.has_edge(u, v)) {
      start.remove_edge(u, v);
      if (!is_connected(start)) start.add_edge(u, v);
    }
  }
  if (diameter(start) != config.target_diameter) return std::nullopt;

  const bool incremental =
      config.evaluation == UnrestEval::Incremental ||
      (config.evaluation == UnrestEval::Auto && search_state_enabled(start));

  const auto unrest_of = [&](const Graph& g) {
    return config.cost == UsageCost::Sum ? sum_unrest(g) : max_unrest(g);
  };

  // Both evaluation paths run the exact same proposal/acceptance schedule —
  // same rng draws in the same order, same filter semantics, same unrest
  // values — so trajectories are identical (differential-tested in
  // tests/test_search_state.cpp and the search bench).
  if (incremental) {
    // Width seed: the nudge loop above just proved the diameter equals the
    // target, so under Auto the storage width follows from the unified
    // policy (ForceU8 exactly when the target diameter fits the narrow
    // encoding) instead of the state's own ecc(0) screen — one less probe,
    // identical trajectories (saturation still promotes exactly).
    WidthPolicy width = config.resources.width;
    if (width == WidthPolicy::Auto) {
      width = WidthAndBudgetPolicy::policy_for_max_distance(config.target_diameter);
    }
    SearchState state(std::move(start), config.cost,
                      /*include_deletions=*/config.cost == UsageCost::Max,
                      /*parallel=*/true, width);
    std::uint64_t current_unrest = state.unrest();
    double temperature = config.initial_temperature;
    for (std::uint64_t step = 0; step < config.steps && current_unrest > 0; ++step) {
      temperature *= config.cooling;
      const Vertex u = static_cast<Vertex>(rng.below(n));
      const Vertex v = static_cast<Vertex>(rng.below(n));
      if (u == v) continue;
      ++st.proposals;
      const ToggleShape shape = state.propose_toggle(u, v);
      if (!shape.connected || shape.diameter != config.target_diameter) {
        ++st.filtered;
        continue;
      }
      const std::uint64_t proposal_unrest = state.proposal_unrest();
      ++st.evaluated;
      const double delta =
          static_cast<double>(proposal_unrest) - static_cast<double>(current_unrest);
      if (delta <= 0 || rng.uniform01() < std::exp(-delta / temperature)) {
        state.commit();
        current_unrest = proposal_unrest;
        ++st.accepted;
      }
    }
    st.final_unrest = current_unrest;
    st.dist_width = state.width();
    st.width_promotions = state.stats().promotions;
    if (current_unrest == 0) return state.graph();
    return std::nullopt;
  }

  Graph current = std::move(start);
  std::uint64_t current_unrest = unrest_of(current);
  double temperature = config.initial_temperature;

  for (std::uint64_t step = 0; step < config.steps && current_unrest > 0; ++step) {
    temperature *= config.cooling;
    const Vertex u = static_cast<Vertex>(rng.below(n));
    const Vertex v = static_cast<Vertex>(rng.below(n));
    if (u == v) continue;
    ++st.proposals;
    Graph proposal = current;
    if (proposal.has_edge(u, v)) {
      proposal.remove_edge(u, v);
    } else {
      proposal.add_edge(u, v);
    }
    if (!is_connected(proposal) || diameter(proposal) != config.target_diameter) {
      ++st.filtered;
      continue;
    }
    const std::uint64_t proposal_unrest = unrest_of(proposal);
    ++st.evaluated;
    const double delta =
        static_cast<double>(proposal_unrest) - static_cast<double>(current_unrest);
    if (delta <= 0 || rng.uniform01() < std::exp(-delta / temperature)) {
      current = std::move(proposal);
      current_unrest = proposal_unrest;
      ++st.accepted;
    }
  }
  st.final_unrest = current_unrest;
  if (current_unrest == 0) return current;
  return std::nullopt;
}

std::optional<Graph> anneal_sum_equilibrium(Graph start, const AnnealConfig& config) {
  AnnealConfig sum_config = config;
  sum_config.cost = UsageCost::Sum;
  return anneal_equilibrium(std::move(start), sum_config);
}

std::optional<Graph> exhaustive_diameter3_sum_equilibrium(Vertex n) {
  BNCG_REQUIRE(n >= 2 && n <= 7, "exhaustive search supported for n <= 7");
  // Enumerate all edge subsets over the C(n,2) vertex pairs. Cheap filters
  // first (edge count, connectivity, diameter), full certification last.
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
  }
  const std::uint32_t num_pairs = static_cast<std::uint32_t>(pairs.size());
  BfsWorkspace ws;
  for (std::uint32_t mask = 0; mask < (1u << num_pairs); ++mask) {
    // Diameter 3 needs at least n−1 edges (connectivity) and at least one
    // non-adjacent pair, so skip masks outside [n−1, C(n,2) − 1] edges.
    const int bits = __builtin_popcount(mask);
    if (bits < static_cast<int>(n) - 1 || bits >= static_cast<int>(num_pairs)) continue;
    Graph g(n);
    for (std::uint32_t i = 0; i < num_pairs; ++i) {
      if (mask & (1u << i)) g.add_edge(pairs[i].first, pairs[i].second);
    }
    if (!bfs(g, 0, ws).spans(n)) continue;
    if (diameter(g) != 3) continue;
    bool stable = true;
    for (Vertex v = 0; v < n && stable; ++v) {
      // The allocation-free oracle wins at n ≤ 7: a SwapEngine build per
      // enumerated graph (millions of them) would be pure overhead.
      stable = !naive::first_sum_deviation(g, v, ws).has_value();
    }
    if (stable) return g;
  }
  return std::nullopt;
}

}  // namespace bncg
