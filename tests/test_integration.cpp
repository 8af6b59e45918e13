// Integration tests: whole-pipeline flows crossing module boundaries —
// generators → dynamics → certifiers → analysis, as a user of the public
// API would compose them.
#include <gtest/gtest.h>

#include "core/classic_game.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/kstability.hpp"
#include "core/poa.hpp"
#include "gen/cayley.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/projective.hpp"
#include "gen/random.hpp"
#include "graph/distance_uniformity.hpp"
#include "graph/metrics.hpp"
#include "graph/power.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

TEST(Integration, RandomStartToCertifiedSumEquilibrium) {
  // generator → dynamics → certifier → PoA analysis, end to end.
  Xoshiro256ss rng(101);
  const Graph start = random_connected_gnm(24, 32, rng);
  DynamicsConfig config;
  config.max_moves = 100'000;
  const DynamicsResult r = run_dynamics(start, config);
  ASSERT_TRUE(r.converged);
  const EquilibriumCertificate cert = certify_sum_equilibrium(r.graph);
  EXPECT_TRUE(cert.is_equilibrium);
  EXPECT_LE(diameter(r.graph), 6u);
  EXPECT_LT(social_cost_ratio(r.graph, UsageCost::Sum), 2.0);
}

TEST(Integration, DynamicsNeverLoseVerticesOrEdges) {
  Xoshiro256ss rng(102);
  const Graph start = barabasi_albert(30, 2, rng);
  DynamicsConfig config;
  config.scheduler = Scheduler::RandomOrder;
  config.max_moves = 100'000;
  const DynamicsResult r = run_dynamics(start, config);
  EXPECT_EQ(r.graph.num_vertices(), start.num_vertices());
  EXPECT_EQ(r.graph.num_edges(), start.num_edges());
  EXPECT_NO_THROW(r.graph.check_invariants());
}

TEST(Integration, EquilibriumFromDynamicsIsSwapStableInAlphaGameForAllAlpha) {
  // Run basic-game dynamics to equilibrium, then drop the result into the
  // α-game and confirm no swap deviations exist at any α — the paper's
  // transfer principle, executed.
  Xoshiro256ss rng(103);
  const Graph start = random_connected_gnm(16, 20, rng);
  DynamicsConfig config;
  config.max_moves = 100'000;
  const DynamicsResult r = run_dynamics(start, config);
  ASSERT_TRUE(r.converged);
  for (const double alpha : {0.01, 1.0, 7.0, 1e6}) {
    ClassicGame game(r.graph, alpha);
    for (Vertex v = 0; v < r.graph.num_vertices(); ++v) {
      const auto move = game.best_deviation(v);
      if (move) {
        EXPECT_NE(move->type, ClassicMove::Type::Swap);
      }
    }
  }
}

TEST(Integration, TorusPipelineFromConstructionToKStability) {
  // Construction → certifier → k-stability → uniformity, the full §4 story.
  const DiagonalTorus torus(2, 4);
  const Graph& g = torus.graph();
  EXPECT_TRUE(is_deletion_critical(g));
  EXPECT_TRUE(is_insertion_stable(g));
  const DistanceMatrix dm(g);
  EXPECT_EQ(max_tolerated_insertions(dm, 0, 3), 1u);
  // Vertex-transitive constructions are distance-uniform-ish: the best ε is
  // the same from every vertex by symmetry.
  const UniformityResult u = best_almost_uniformity(dm);
  EXPECT_LT(u.epsilon, 1.0);
}

TEST(Integration, PowerOfEquilibriumGraphReducesDiameter) {
  // Theorem 13's mechanism on a concrete instance: dynamics → equilibrium →
  // power graph → diameter divides (ceil).
  Xoshiro256ss rng(104);
  const Graph start = random_connected_gnm(30, 35, rng);
  DynamicsConfig config;
  config.max_moves = 100'000;
  const DynamicsResult r = run_dynamics(start, config);
  ASSERT_TRUE(r.converged);
  const Vertex d = diameter(r.graph);
  if (d >= 2) {
    const Graph squared = power(r.graph, 2);
    EXPECT_EQ(diameter(squared), (d + 1) / 2);
  }
}

TEST(Integration, CayleyGraphsFeedUniformityAnalysis) {
  // Theorem 15 pipeline: Cayley graph → uniformity scan → diameter bound
  // O(lg n / lg(1/ε)) spot check.
  const Graph g = circulant(64, {1, 8});
  const DistanceMatrix dm(g);
  const UniformityResult u = best_almost_uniformity(dm);
  const Vertex diam = distance_stats(dm).diameter;
  EXPECT_GT(diam, 0u);
  EXPECT_LE(u.epsilon, 1.0);
}

TEST(Integration, ProjectivePlaneIncidenceGraphUnderMaxDynamics) {
  // Structured bipartite start; max dynamics must terminate and report
  // consistently.
  const Graph start = incidence_graph(ProjectivePlane(2));
  DynamicsConfig config;
  config.cost = UsageCost::Max;
  config.allow_neutral_deletions = false;
  config.max_moves = 20'000;
  const DynamicsResult r = run_dynamics(start, config);
  EXPECT_TRUE(is_connected(r.graph));
  EXPECT_EQ(r.graph.num_edges(), start.num_edges());
}

TEST(Integration, TraceSocialCostMatchesRecomputation) {
  Xoshiro256ss rng(105);
  const Graph start = random_tree(12, rng);
  DynamicsConfig config;
  config.record_trace = true;
  config.max_moves = 10'000;
  const DynamicsResult r = run_dynamics(start, config);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.trace.back().social_cost, social_cost(r.graph, UsageCost::Sum));
  EXPECT_EQ(r.trace.back().social_cost, total_distance_sum(r.graph));
}

TEST(Integration, MixedFamilySweepAllCertifiersTerminate) {
  // Smoke-level integration over every generator: certifiers and analyses
  // must handle all shapes without exceptions.
  Xoshiro256ss rng(106);
  std::vector<Graph> family;
  family.push_back(star(10));
  family.push_back(cycle(9));
  family.push_back(petersen());
  family.push_back(hypercube(3));
  family.push_back(rotated_torus(3).graph());
  family.push_back(fig3_diameter3_graph());
  family.push_back(incidence_graph(ProjectivePlane(2)));
  family.push_back(random_tree(12, rng));
  family.push_back(watts_strogatz(16, 2, 0.2, rng));
  family.push_back(random_regular(12, 3, rng));
  for (const Graph& g : family) {
    EXPECT_NO_THROW({
      (void)certify_sum_equilibrium(g);
      (void)certify_max_equilibrium(g);
      (void)is_deletion_critical(g);
      (void)is_insertion_stable(g);
      (void)best_uniformity(g);
      (void)girth(g);
    });
  }
}

}  // namespace
}  // namespace bncg
