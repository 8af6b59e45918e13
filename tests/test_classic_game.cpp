// Unit tests for the classic α-game baseline (Fabrikant et al. [9]).
#include "core/classic_game.hpp"

#include <gtest/gtest.h>

#include "core/equilibrium.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

TEST(ClassicGame, DefaultOwnershipIsLowerEndpoint) {
  const ClassicGame game(path(4), 1.0);
  EXPECT_EQ(game.owner(0, 1), 0u);
  EXPECT_EQ(game.owner(2, 3), 2u);
  EXPECT_EQ(game.edges_bought(0), 1u);
  EXPECT_EQ(game.edges_bought(3), 0u);
}

TEST(ClassicGame, ExplicitOwnershipValidated) {
  const Graph g = path(3);
  EXPECT_NO_THROW(ClassicGame(g, 1.0, {1, 1}));
  EXPECT_THROW(ClassicGame(g, 1.0, {2, 1}), std::invalid_argument);
  EXPECT_THROW(ClassicGame(g, 1.0, {0}), std::invalid_argument);
}

TEST(ClassicGame, VertexCostCombinesAlphaAndDistances) {
  const ClassicGame game(star(5), 3.0);  // center 0 owns all edges
  BfsWorkspace ws;
  EXPECT_DOUBLE_EQ(game.vertex_cost(0, ws), 3.0 * 4 + 4.0);
  EXPECT_DOUBLE_EQ(game.vertex_cost(1, ws), 0.0 + 1 + 2 * 3);
}

TEST(ClassicGame, SocialCostFormula) {
  const ClassicGame game(star(5), 2.0);
  // α·m + total distance sum = 2·4 + 2·(4·1 + C(4,2)·2) = 8 + 2·(4+12)=40.
  EXPECT_DOUBLE_EQ(game.social_cost(), 8.0 + 32.0);
}

TEST(ClassicGame, StarIsGreedyEquilibriumForModerateAlpha) {
  // For α between 1 and n²-ish, the star (center-owned) is a known Nash
  // equilibrium of the α-game; greedy deviations must also find nothing.
  for (const double alpha : {1.0, 2.0, 5.0, 50.0}) {
    const ClassicGame game(star(8), alpha);
    EXPECT_TRUE(game.is_greedy_equilibrium()) << "alpha=" << alpha;
  }
}

TEST(ClassicGame, StarIsNotEquilibriumForTinyAlpha) {
  // α < 1: leaves profitably buy edges to each other (gain 1 > α).
  const ClassicGame game(star(8), 0.25);
  EXPECT_FALSE(game.is_greedy_equilibrium());
}

TEST(ClassicGame, PathAgentBuysShortcutWhenCheap) {
  const ClassicGame game(path(6), 0.5);
  const auto move = game.best_deviation(0);
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->type, ClassicMove::Type::Add);
  EXPECT_GT(move->gain, 0.0);
}

TEST(ClassicGame, ExpensiveAlphaTriggersDeletionsOfRedundantEdges) {
  // A clique owner saves α per deleted edge at small distance penalty.
  const ClassicGame game(complete(6), 100.0);
  const auto move = game.best_deviation(0);
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->type, ClassicMove::Type::Delete);
}

TEST(ClassicGame, ApplyMaintainsOwnershipInvariants) {
  ClassicGame game(path(5), 0.5);
  const auto move = game.best_deviation(0);
  ASSERT_TRUE(move.has_value());
  game.apply(*move);
  EXPECT_NO_THROW(game.graph().check_invariants());
  if (move->type == ClassicMove::Type::Add) {
    EXPECT_EQ(game.owner(move->v, move->w), move->v);
  }
}

TEST(ClassicGame, BestResponseConvergesOnSmallInstances) {
  Xoshiro256ss rng(41);
  for (const double alpha : {0.5, 1.5, 4.0, 20.0}) {
    ClassicGame game(random_connected_gnm(10, 14, rng), alpha);
    const auto result = game.run_best_response(20'000);
    EXPECT_TRUE(is_connected(game.graph()));
    // Best-response in the α-game is not a potential game, so convergence
    // is empirical; when the run reports convergence the state must be a
    // genuine greedy equilibrium.
    if (result.converged) {
      EXPECT_TRUE(game.is_greedy_equilibrium()) << "alpha=" << alpha;
    }
  }
}

TEST(ClassicGame, SwapStabilityTransfersFromSumEquilibriumForAllAlpha) {
  // The paper's bridge: a sum swap equilibrium admits no improving *swap*
  // in the α-game, for every α (the α term cancels on swaps).
  const Graph g = star(7);
  for (const double alpha : {0.1, 1.0, 3.0, 10.0, 1000.0}) {
    ClassicGame game(g, alpha);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto move = game.best_deviation(v);
      if (move) {
        EXPECT_NE(move->type, ClassicMove::Type::Swap)
            << "alpha=" << alpha << " v=" << v;
      }
    }
  }
}

TEST(ClassicGame, ReferenceSocialCosts) {
  EXPECT_DOUBLE_EQ(star_social_cost(5, 2.0), 2.0 * 4 + 2 * 16);
  EXPECT_DOUBLE_EQ(clique_social_cost(5, 2.0), 2.0 * 10 + 20);
  // α = 2 is the known crossover: star and clique costs order swaps there.
  EXPECT_LT(clique_social_cost(10, 1.0), star_social_cost(10, 1.0));
  EXPECT_LT(star_social_cost(10, 3.0), clique_social_cost(10, 3.0));
  EXPECT_DOUBLE_EQ(optimal_social_cost(10, 1.0), clique_social_cost(10, 1.0));
  EXPECT_DOUBLE_EQ(optimal_social_cost(10, 3.0), star_social_cost(10, 3.0));
}

TEST(ClassicGame, NegativeAlphaRejected) {
  EXPECT_THROW(ClassicGame(path(3), -1.0), std::invalid_argument);
}

TEST(ClassicGame, EquilibriumSocialCostBoundedByOptimumTimesDiameterFactor) {
  // Sanity check of the [7]-style relation on converged instances: the
  // cost ratio stays within a small factor related to the diameter.
  Xoshiro256ss rng(43);
  ClassicGame game(random_connected_gnm(12, 16, rng), 2.0);
  (void)game.run_best_response(20'000);
  const double ratio = game.social_cost() / optimal_social_cost(12, 2.0);
  EXPECT_GE(ratio, 1.0 - 1e-9);
  EXPECT_LE(ratio, 4.0 * (diameter(game.graph()) + 1));
}

}  // namespace
}  // namespace bncg
