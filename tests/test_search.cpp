// Unit tests for the equilibrium search module (core/search.hpp) — the
// machinery that re-established Theorem 5 after the literal Figure 3
// instance was refuted.
#include "core/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/equilibrium.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "util/thread_pool.hpp"

namespace bncg {
namespace {

TEST(Search, UnrestIsZeroExactlyOnEquilibria) {
  EXPECT_EQ(sum_unrest(star(9)), 0u);
  EXPECT_EQ(sum_unrest(complete(6)), 0u);
  EXPECT_EQ(sum_unrest(diameter3_sum_equilibrium_n8()), 0u);
  EXPECT_GT(sum_unrest(path(8)), 0u);
  EXPECT_GT(sum_unrest(fig3_diameter3_graph()), 0u);
}

TEST(Search, UnrestOfLiteralFig3IsExactlyThree) {
  // Each of the three d-agents has one unit of improvement available; all
  // other agents are stable (the paper's case analysis holds for them).
  EXPECT_EQ(sum_unrest(fig3_diameter3_graph()), 3u);
}

TEST(Search, UnrestMatchesCertifierVerdict) {
  Xoshiro256ss rng(61);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = random_connected_gnm(12, 18, rng);
    EXPECT_EQ(sum_unrest(g) == 0, is_sum_equilibrium(g));
  }
}

TEST(Search, AnnealFindsTheKnownDiameter3Equilibrium) {
  // Deterministic, seeded reproduction of the discovery run (small budget:
  // starting near the witness).
  AnnealConfig config;
  config.steps = 4000;
  config.seed = 77;
  const auto found = anneal_equilibrium(diameter3_sum_equilibrium_n8(), config);
  ASSERT_TRUE(found.has_value());  // already an equilibrium: returns immediately
  EXPECT_EQ(*found, diameter3_sum_equilibrium_n8());
}

TEST(Search, AnnealRespectsDiameterConstraint) {
  Xoshiro256ss rng(62);
  AnnealConfig config;
  config.target_diameter = 3;
  config.steps = 3000;
  config.seed = 99;
  const auto found = anneal_equilibrium(random_connected_gnm(8, 14, rng), config);
  if (found) {
    EXPECT_EQ(diameter(*found), 3u);
    EXPECT_TRUE(is_sum_equilibrium(*found));
  }
}

TEST(Search, ExhaustiveFindsNothingBelowEightVertices) {
  // The minimality half of the Theorem 5 reproduction: no diameter-3 sum
  // equilibrium exists on n ≤ 6 vertices (n = 7 is covered by the bench to
  // keep unit-test runtime low).
  for (const Vertex n : {4u, 5u, 6u}) {
    EXPECT_FALSE(exhaustive_diameter3_sum_equilibrium(n).has_value()) << "n=" << n;
  }
}

TEST(Search, ExhaustiveRejectsLargeN) {
  EXPECT_THROW((void)exhaustive_diameter3_sum_equilibrium(9), std::invalid_argument);
}

TEST(Search, MaxUnrestIsZeroExactlyOnMaxEquilibria) {
  EXPECT_EQ(max_unrest(star(9)), 0u);
  EXPECT_EQ(max_unrest(complete(6)), 0u);
  // C_9 admits no improving swap but plenty of non-critical chords once one
  // is added; the plain cycle's unrest comes from improving swaps.
  EXPECT_GT(max_unrest(cycle(9)), 0u);
  // A cost-neutral deletion (the chord of C_8 + {0,2}) is a violation worth
  // at least the floor contribution of 1.
  Graph chorded = cycle(8);
  chorded.add_edge(0, 2);
  EXPECT_GT(max_unrest(chorded), 0u);
}

TEST(Search, AnnealMaxModelResultsCertify) {
  Xoshiro256ss rng(63);
  AnnealConfig config;
  config.cost = UsageCost::Max;
  config.target_diameter = 2;
  config.steps = 2000;
  config.seed = 41;
  const auto found = anneal_equilibrium(random_connected_gnm(9, 14, rng), config);
  if (found) {
    EXPECT_EQ(diameter(*found), 2u);
    EXPECT_TRUE(is_max_equilibrium(*found));
  }
}

TEST(Search, AnnealStatsAccountForEveryProposal) {
  Xoshiro256ss rng(64);
  AnnealConfig config;
  config.steps = 500;
  config.seed = 7;
  config.target_diameter = 4;
  AnnealStats stats;
  const Graph start = random_connected_gnm(10, 16, rng);
  (void)anneal_equilibrium(start, config, &stats);
  EXPECT_EQ(stats.proposals, stats.filtered + stats.evaluated);
  EXPECT_LE(stats.accepted, stats.evaluated);
}

TEST(Search, AnnealTrajectoriesMatchPins) {
  // Seeded anneals in both models, pinned to the trajectories on which an
  // incremental evaluator and a full recompute per proposal agreed: every
  // counter and the fingerprint of the graph each run ended on. Every run
  // evaluates through the engine — at both storage widths, and once more
  // under a memory budget too small for any dense slab, so scans and the
  // shape screen run budgeted; all are held to the same pins. The gnm24 runs start off the target diameter and are
  // nudged onto it first; the chorded cycle's masked distances cross the
  // u8 cap, so its u8 scans fall back to u16.
  struct Pin {
    const char* name;
    std::uint64_t proposals, filtered, evaluated, accepted, final_unrest, fingerprint;
  };
  struct Case {
    Graph start;
    UsageCost model;
    Vertex target_diameter;
    std::uint64_t steps;
    std::uint64_t seed;
    Pin pin;
  };
  Xoshiro256ss rng(0x71A);
  const Graph gnm14 = random_connected_gnm(14, 26, rng);
  const Graph gnm24 = random_connected_gnm(24, 40, rng);
  Graph chorded = cycle(96);
  chorded.add_edge(0, 48);
  const std::vector<Case> cases = {
      {gnm14, UsageCost::Sum, diameter(gnm14), 400, 0x5EED1,
       {"gnm14 sum", 374, 91, 283, 242, 11, 0x879a7504c75f8d87ull}},
      {gnm14, UsageCost::Max, diameter(gnm14), 400, 0x5EED1,
       {"gnm14 max", 359, 75, 284, 277, 16, 0x287bae009b20da6bull}},
      {gnm24, UsageCost::Sum, 3, 300, 0x5EED2,
       {"gnm24 sum", 293, 4, 289, 267, 4, 0x4c0ae6f479947e83ull}},
      {gnm24, UsageCost::Max, 3, 300, 0x5EED2,
       {"gnm24 max", 288, 5, 283, 283, 24, 0xa207371d56958bcfull}},
      {chorded, UsageCost::Sum, diameter(chorded), 220, 0x5EEDF,
       {"chorded96 sum", 220, 216, 4, 0, 63920, 0x816b8fa0feb46611ull}},
      {chorded, UsageCost::Max, diameter(chorded), 220, 0x5EEDF,
       {"chorded96 max", 220, 216, 4, 0, 1058, 0x816b8fa0feb46611ull}},
  };
  struct Leg {
    const char* name;
    WidthPolicy width;
    bool budgeted;
  };
  const Leg legs[] = {{" u8", WidthPolicy::ForceU8, false},
                      {" u16", WidthPolicy::ForceU16, false},
                      {" budgeted", WidthPolicy::Auto, true}};
  for (const Case& c : cases) {
    for (const Leg& leg : legs) {
      AnnealConfig config;
      config.cost = c.model;
      config.target_diameter = c.target_diameter;
      config.steps = c.steps;
      config.seed = c.seed;
      config.resources.width = leg.width;
      const Vertex n = c.start.num_vertices();
      if (leg.budgeted) {
        // Four u16 rows per lane: room for the row cache's two single-row
        // blocks, and less than any n × n slab at these sizes.
        config.resources.mem_budget = std::uint64_t{4} * n * sizeof(std::uint16_t) *
                                      ThreadPool::global().size();
        const WidthAndBudgetPolicy policy(config.resources);
        ASSERT_EQ(policy.storage_for(n, DistWidth::U8), RowStorage::Budgeted);
      }
      AnnealStats st;
      const std::optional<Graph> found = anneal_equilibrium(c.start, config, &st);
      const std::string ctx = std::string(c.pin.name) + leg.name;
      EXPECT_EQ(st.proposals, c.pin.proposals) << ctx;
      EXPECT_EQ(st.filtered, c.pin.filtered) << ctx;
      EXPECT_EQ(st.evaluated, c.pin.evaluated) << ctx;
      EXPECT_EQ(st.accepted, c.pin.accepted) << ctx;
      EXPECT_EQ(st.final_unrest, c.pin.final_unrest) << ctx;
      EXPECT_EQ(st.final_fingerprint, c.pin.fingerprint) << ctx;
      EXPECT_EQ(found.has_value(), c.pin.final_unrest == 0) << ctx;
    }
  }
}

/// Toggles {u, v} in place.
void toggle(Graph& g, Vertex u, Vertex v) {
  if (g.has_edge(u, v)) {
    g.remove_edge(u, v);
  } else {
    g.add_edge(u, v);
  }
}

/// sum_unrest (the pooled engine scan with the relief bound that sum anneal
/// evaluates with) against the naive oracle on random toggle walks: every
/// proposal, accepted or not, on `instances` random instances of 6..18
/// vertices — sparse and dense G(n, m), trees, near-trees. With `serial`
/// each scan runs inside a one-chunk pool task, so the nested scan stays on
/// one lane; otherwise it spreads over every lane of the pool.
void run_sum_unrest_differential(bool serial, int instances, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (int trial = 0; trial < instances; ++trial) {
    const Vertex n = 6 + static_cast<Vertex>(rng.below(13));
    Graph mirror;
    switch (trial % 4) {
      case 0:
        mirror = random_connected_gnm(n, n + n / 2, rng);
        break;
      case 1:
        mirror = random_connected_gnm(n, 2 * static_cast<std::size_t>(n), rng);
        break;
      case 2:
        mirror = random_tree(n, rng);
        break;
      default:
        mirror = random_connected_gnm(n, n - 1 + rng.below(n), rng);
    }
    for (int step = 0; step < 25; ++step) {
      const Vertex u = static_cast<Vertex>(rng.below(n));
      const Vertex v = static_cast<Vertex>(rng.below(n));
      if (u == v) continue;
      Graph toggled = mirror;
      toggle(toggled, u, v);
      if (!is_connected(toggled)) continue;
      std::uint64_t want = 0;
      BfsWorkspace ws;
      for (Vertex a = 0; a < n; ++a) {
        const std::optional<Deviation> dev = naive::best_sum_deviation(toggled, a, ws);
        if (dev) want += dev->cost_before - dev->cost_after;
      }
      std::uint64_t got = 0;
      if (serial) {
        ThreadPool::global().parallel_for(1, 1, [&](std::uint64_t, unsigned) {
          got = sum_unrest(toggled);
        });
      } else {
        got = sum_unrest(toggled);
      }
      ASSERT_EQ(got, want) << "trial " << trial << " step " << step;
      if (rng.bernoulli(0.5)) mirror = std::move(toggled);
    }
  }
}

// The suite keeps the name it had when these walks pinned the incremental
// search state that sum anneal used before it moved onto the engine.
TEST(SearchStateDifferential, SumUnrestMatchesNaiveOnEveryProposalSerial) {
  run_sum_unrest_differential(/*serial=*/true, 35, 0xA001);
}

TEST(SearchStateDifferential, SumUnrestMatchesNaiveOnEveryProposalParallel) {
  run_sum_unrest_differential(/*serial=*/false, 35, 0xA002);
}

TEST(Search, MaxUnrestMatchesNaiveOnEveryProposal) {
  // max_unrest (the pooled engine scan max anneal evaluates with) against
  // the naive oracle on random toggle walks: every proposal, accepted or
  // not, on 35 random instances of 6..18 vertices, trees included.
  Xoshiro256ss rng(0xA003);
  for (int trial = 0; trial < 35; ++trial) {
    const Vertex n = 6 + static_cast<Vertex>(rng.below(13));
    Graph mirror = trial % 4 == 2 ? random_tree(n, rng)
                                  : random_connected_gnm(n, n - 1 + rng.below(n + 2), rng);
    for (int step = 0; step < 25; ++step) {
      const Vertex u = static_cast<Vertex>(rng.below(n));
      const Vertex v = static_cast<Vertex>(rng.below(n));
      if (u == v) continue;
      Graph toggled = mirror;
      toggle(toggled, u, v);
      if (!is_connected(toggled)) continue;
      std::uint64_t want = 0;
      BfsWorkspace ws;
      for (Vertex a = 0; a < n; ++a) {
        const std::optional<Deviation> dev =
            naive::best_max_deviation(toggled, a, ws, /*include_deletions=*/true);
        if (dev) want += std::max<std::uint64_t>(1, dev->cost_before - dev->cost_after);
      }
      ASSERT_EQ(max_unrest(toggled), want) << "trial " << trial << " step " << step;
      if (rng.bernoulli(0.5)) mirror = std::move(toggled);
    }
  }
}

}  // namespace
}  // namespace bncg
