// Differential tests for the incremental sum-unrest SearchState
// (core/search_state.hpp): every incremental quantity — proposal shapes,
// unrest values, per-agent scan tables — is pinned to full recomputation
// through the bncg::naive oracles after every accepted AND rejected
// proposal, across 80+ random instances, with the parallel evaluation pass
// both on and off.
#include "core/search_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/equilibrium.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

/// Reference sum unrest straight from the naive BFS-per-candidate oracle:
/// Σ_a (gain of the best swap). Deliberately shares no code with
/// SearchState.
std::uint64_t naive_unrest(const Graph& g) {
  BfsWorkspace ws;
  std::uint64_t total = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::optional<Deviation> dev = naive::best_sum_deviation(g, v, ws);
    if (dev) total += dev->cost_before - dev->cost_after;
  }
  return total;
}

/// Reference scan tables of agent a on a connected graph, from BFS over
/// G − a: min1/min2/argmin fold the neighbor rows in ascending neighbor
/// order with strict '<' (the state's tie-break), and
/// R1[w₂] = Σ_{y≠a} max(0, min1_y − d_{G−a}(y, w₂)), ∞ contributing 0.
SearchState::ScanTables naive_scan_tables(const Graph& g, Vertex a) {
  const Vertex n = g.num_vertices();
  Graph masked = g;
  std::vector<Vertex> nbrs(g.neighbors(a).begin(), g.neighbors(a).end());
  std::sort(nbrs.begin(), nbrs.end());
  for (const Vertex z : nbrs) masked.remove_edge(a, z);
  std::vector<std::vector<Vertex>> dist(n);
  for (Vertex x = 0; x < n; ++x) {
    if (x != a) dist[x] = distances_from(masked, x);
  }
  SearchState::ScanTables t;
  t.min1.assign(n, kInfDist);
  t.min2.assign(n, kInfDist);
  t.argmin.assign(n, kNoVertex);
  for (const Vertex z : nbrs) {
    for (Vertex y = 0; y < n; ++y) {
      const Vertex d = dist[z][y];
      if (d < t.min1[y]) {
        t.min2[y] = t.min1[y];
        t.min1[y] = d;
        t.argmin[y] = z;
      } else if (d < t.min2[y]) {
        t.min2[y] = d;
      }
    }
  }
  t.r1.assign(n, 0);
  for (Vertex y = 0; y < n; ++y) {
    if (y == a) continue;
    for (Vertex w2 = 0; w2 < n; ++w2) {
      const Vertex d = dist[y][w2];
      if (d != kInfDist && t.min1[y] > d) t.r1[w2] += t.min1[y] - d;
    }
  }
  return t;
}

Graph random_instance(int trial, Xoshiro256ss& rng) {
  const Vertex n = 6 + static_cast<Vertex>(rng.below(13));  // 6..18
  switch (trial % 4) {
    case 0:
      return random_connected_gnm(n, n + n / 2, rng);
    case 1:
      return random_connected_gnm(n, 2 * static_cast<std::size_t>(n), rng);
    case 2:
      return random_tree(n, rng);
    default:
      return random_connected_gnm(n, n - 1 + rng.below(n), rng);
  }
}

/// Core differential loop: random toggles, every proposal's shape and unrest
/// compared against full recomputation on a mirror graph, random commits,
/// post-commit state compared again.
void run_unrest_differential(bool parallel, int instances, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (int trial = 0; trial < instances; ++trial) {
    Graph mirror = random_instance(trial, rng);
    const Vertex n = mirror.num_vertices();
    SearchState state(mirror, parallel);
    ASSERT_EQ(state.unrest(), naive_unrest(mirror))
        << "initial unrest, trial " << trial;

    for (int step = 0; step < 25; ++step) {
      const Vertex u = static_cast<Vertex>(rng.below(n));
      const Vertex v = static_cast<Vertex>(rng.below(n));
      if (u == v) continue;
      const ToggleShape shape = state.propose_toggle(u, v);

      Graph toggled = mirror;
      if (toggled.has_edge(u, v)) {
        toggled.remove_edge(u, v);
      } else {
        toggled.add_edge(u, v);
      }
      ASSERT_EQ(shape.connected, is_connected(toggled))
          << "trial " << trial << " step " << step;
      ASSERT_EQ(shape.diameter, diameter(toggled)) << "trial " << trial << " step " << step;

      ASSERT_EQ(state.proposal_unrest(), naive_unrest(toggled))
          << "proposal unrest, trial " << trial << " step " << step << " toggle {" << u << ","
          << v << "}";

      if (rng.bernoulli(0.5)) {
        state.commit();
        mirror = std::move(toggled);
        ASSERT_EQ(state.graph(), mirror) << "trial " << trial << " step " << step;
        ASSERT_EQ(state.unrest(), naive_unrest(mirror))
            << "post-commit unrest, trial " << trial << " step " << step;
      }
    }
  }
}

TEST(SearchStateDifferential, SumUnrestMatchesNaiveOnEveryProposalSerial) {
  run_unrest_differential(/*parallel=*/false, 35, 0xA001);
}

TEST(SearchStateDifferential, SumUnrestMatchesNaiveOnEveryProposalParallel) {
  run_unrest_differential(/*parallel=*/true, 35, 0xA002);
}

TEST(SearchStateDifferential, LazyAgentsCatchUpAcrossLongJournals) {
  // A propose → proposal_unrest → commit walk of additions and removals:
  // after each commit every agent's matrix is one toggle behind until the
  // next evaluation replays it, so every agent's scan tables (brought
  // current by debug_scan_tables) and the unrest are checked against naive
  // after every commit, and each next proposal's unrest reads the replayed
  // matrices.
  Xoshiro256ss rng(0xD007);
  for (int trial = 0; trial < 12; ++trial) {
    Graph mirror = random_connected_gnm(12, 22, rng);
    SearchState state(mirror, /*parallel=*/trial % 4 < 2);
    int commits = 0;
    int removals = 0;
    int guard = 0;
    while (commits < 10 && guard++ < 400) {
      const Vertex u = static_cast<Vertex>(rng.below(12));
      const Vertex v = static_cast<Vertex>(rng.below(12));
      if (u == v) continue;
      Graph toggled = mirror;
      const bool removing = toggled.has_edge(u, v);
      if (removing) {
        toggled.remove_edge(u, v);
        if (!is_connected(toggled)) continue;  // keep the walk connected
      } else {
        toggled.add_edge(u, v);
      }
      (void)state.propose_toggle(u, v);
      const std::string ctx = "trial " + std::to_string(trial) + " commit " +
                              std::to_string(commits);
      ASSERT_EQ(state.proposal_unrest(), naive_unrest(toggled)) << ctx;
      state.commit();
      mirror = std::move(toggled);
      ++commits;
      removals += removing ? 1 : 0;
      ASSERT_EQ(state.graph(), mirror) << ctx;
      ASSERT_EQ(state.unrest(), naive_unrest(mirror)) << ctx;
      for (Vertex a = 0; a < 12; ++a) {
        const SearchState::ScanTables got = state.debug_scan_tables(a);
        const SearchState::ScanTables want = naive_scan_tables(mirror, a);
        ASSERT_EQ(got.min1, want.min1) << ctx << " agent " << a;
        ASSERT_EQ(got.min2, want.min2) << ctx << " agent " << a;
        ASSERT_EQ(got.argmin, want.argmin) << ctx << " agent " << a;
        ASSERT_EQ(got.r1, want.r1) << ctx << " agent " << a;
      }
    }
    EXPECT_EQ(commits, 10) << "trial " << trial;
    EXPECT_GT(removals, 0) << "trial " << trial;
  }
}

TEST(SearchState, KnownEquilibriaHaveZeroUnrest) {
  EXPECT_EQ(SearchState(star(9)).unrest(), 0u);
  EXPECT_EQ(SearchState(complete(6)).unrest(), 0u);
  EXPECT_GT(SearchState(path(8)).unrest(), 0u);
  EXPECT_GT(SearchState(cycle(9)).unrest(), 0u);
}

TEST(SearchState, RejectsInvalidToggles) {
  SearchState state(cycle(5));
  EXPECT_THROW((void)state.propose_toggle(2, 2), std::invalid_argument);
  EXPECT_THROW((void)state.propose_toggle(0, 7), std::invalid_argument);
  EXPECT_THROW((void)state.commit(), std::invalid_argument);  // nothing staged
  (void)state.propose_toggle(0, 2);
  EXPECT_THROW((void)state.commit(), std::invalid_argument);  // not evaluated
}

TEST(SearchState, StatsCountProposalLifecycle) {
  SearchState state(cycle(6));
  (void)state.unrest();
  (void)state.propose_toggle(0, 2);
  (void)state.proposal_unrest();
  state.commit();
  const SearchStats& st = state.stats();
  EXPECT_EQ(st.proposals, 1u);
  EXPECT_EQ(st.evaluations, 1u);
  EXPECT_EQ(st.commits, 1u);
  EXPECT_GT(st.agents_scanned, 0u);
}

}  // namespace
}  // namespace bncg
