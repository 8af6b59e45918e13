// Unit tests for the specialized tree engine (core/tree_game.hpp):
// O(n) distance sums, median re-attachment, Theorem 1 witnesses, and
// equivalence with the generic BFS engine.
#include "core/tree_game.hpp"

#include <gtest/gtest.h>

#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/swap_engine.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

TEST(TreeGame, DistanceSumsMatchBfsOnRandomTrees) {
  Xoshiro256ss rng(121);
  for (const Vertex n : {1u, 2u, 5u, 17u, 64u, 200u}) {
    const Graph t = random_tree(n, rng);
    const auto fast = tree_distance_sums(t);
    for (Vertex v = 0; v < n; ++v) {
      ASSERT_EQ(fast[v], distance_sum_from(t, v)) << "n=" << n << " v=" << v;
    }
  }
}

TEST(TreeGame, DistanceSumsRejectNonTrees) {
  EXPECT_THROW((void)tree_distance_sums(cycle(5)), std::invalid_argument);
  Graph forest(4);
  forest.add_edge(0, 1);
  EXPECT_THROW((void)tree_distance_sums(forest), std::invalid_argument);
}

TEST(TreeGame, MedianOfStarIsCenter) {
  EXPECT_EQ(tree_one_median(star(9)), 0u);
}

TEST(TreeGame, MedianOfPathIsMiddle) {
  EXPECT_EQ(tree_one_median(path(7)), 3u);
  // Even path: two medians; lowest id wins.
  EXPECT_EQ(tree_one_median(path(6)), 2u);
}

TEST(TreeGame, BestDeviationMatchesGenericEngine) {
  Xoshiro256ss rng(122);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph t = random_tree(14, rng);
    SwapEngine engine(t);
    for (Vertex v = 0; v < t.num_vertices(); ++v) {
      const auto fast = best_tree_deviation(t, v);
      const auto generic = engine.best_deviation(v, UsageCost::Sum);
      ASSERT_EQ(fast.has_value(), generic.has_value()) << "v=" << v << " " << to_string(t);
      if (fast && generic) {
        EXPECT_EQ(fast->gain, generic->cost_before - generic->cost_after)
            << "v=" << v << " " << to_string(t);
      }
    }
  }
}

TEST(TreeGame, StarAgentsAreAllStable) {
  const Graph s = star(10);
  for (Vertex v = 0; v < 10; ++v) {
    EXPECT_FALSE(best_tree_deviation(s, v).has_value()) << v;
  }
}

TEST(TreeGame, DynamicsConvergeToStars) {
  // Theorem 1 via the specialized engine: all fixed points have diameter ≤ 2.
  Xoshiro256ss rng(123);
  for (const Vertex n : {4u, 8u, 20u, 60u, 150u}) {
    const TreeDynamicsResult r = run_tree_dynamics(random_tree(n, rng));
    ASSERT_TRUE(r.converged) << "n=" << n;
    EXPECT_TRUE(is_tree(r.tree));
    EXPECT_LE(diameter(r.tree), 2u) << "n=" << n;
  }
}

TEST(TreeGame, DynamicsPreserveTreeInvariants) {
  Xoshiro256ss rng(124);
  const Graph start = random_tree(40, rng);
  const TreeDynamicsResult r = run_tree_dynamics(start);
  EXPECT_EQ(r.tree.num_vertices(), start.num_vertices());
  EXPECT_EQ(r.tree.num_edges(), start.num_edges());
  EXPECT_NO_THROW(r.tree.check_invariants());
}

TEST(TreeGame, Theorem1WitnessInequalitiesCannotBothFail) {
  // The paper's contradiction: summing s_b + s_w ≤ s_a and s_v + s_a ≤ s_b
  // forces s_v + s_w ≤ 0. So on every diameter ≥ 3 tree, at least one swap
  // wins. Sweep random trees.
  Xoshiro256ss rng(125);
  int witnesses = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Graph t = random_tree(12, rng);
    const auto w = theorem1_witness(t);
    if (!w) {
      EXPECT_LE(diameter(t), 2u);
      continue;
    }
    ++witnesses;
    EXPECT_TRUE(w->v_swap_wins || w->w_swap_wins) << to_string(t);
    EXPECT_GE(w->sv + w->sw, 2u);  // they count v and w themselves
    EXPECT_EQ(w->sv + w->sa + w->sb + w->sw, t.num_vertices());
  }
  EXPECT_GT(witnesses, 0);
}

TEST(TreeGame, WitnessPathIsGenuine) {
  Xoshiro256ss rng(126);
  const Graph t = random_tree(15, rng);
  const auto w = theorem1_witness(t);
  if (!w) return;  // tiny-diameter tree; nothing to check
  BfsWorkspace ws;
  EXPECT_EQ(distance(t, w->v, w->w, ws), 3u);
  EXPECT_TRUE(t.has_edge(w->v, w->a));
  EXPECT_TRUE(t.has_edge(w->a, w->b));
  EXPECT_TRUE(t.has_edge(w->b, w->w));
}

TEST(TreeGame, SpecializedAndGenericDynamicsAgreeOnFixedPoints) {
  Xoshiro256ss rng(127);
  const Graph start = random_tree(18, rng);
  const TreeDynamicsResult fast = run_tree_dynamics(start);
  DynamicsConfig config;
  config.max_moves = 100'000;
  const DynamicsResult generic = run_dynamics(start, config);
  ASSERT_TRUE(fast.converged);
  ASSERT_TRUE(generic.converged);
  // Both must land on stars (possibly different centers).
  EXPECT_LE(diameter(fast.tree), 2u);
  EXPECT_LE(diameter(generic.graph), 2u);
}

}  // namespace
}  // namespace bncg
