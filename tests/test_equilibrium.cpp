// Unit tests for the equilibrium certifiers — the paper's definitions
// exercised on known equilibria and known non-equilibria.
#include "core/equilibrium.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/swap_engine.hpp"

#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

// ---------------------------------------------------------------- sum model

TEST(SumEquilibrium, StarIsInSumEquilibrium) {
  EXPECT_TRUE(is_sum_equilibrium(star(8)));
}

TEST(SumEquilibrium, CompleteGraphIsInSumEquilibrium) {
  EXPECT_TRUE(is_sum_equilibrium(complete(6)));
}

TEST(SumEquilibrium, PathIsNotInSumEquilibrium) {
  const EquilibriumCertificate cert = certify_sum_equilibrium(path(6));
  EXPECT_FALSE(cert.is_equilibrium);
  ASSERT_TRUE(cert.witness.has_value());
  EXPECT_LT(cert.witness->cost_after, cert.witness->cost_before);
}

TEST(SumEquilibrium, WitnessIsActuallyImproving) {
  const Graph g = path(7);
  const EquilibriumCertificate cert = certify_sum_equilibrium(g);
  ASSERT_TRUE(cert.witness.has_value());
  const Deviation& dev = *cert.witness;
  Graph h = g;
  BfsWorkspace ws;
  EXPECT_EQ(vertex_cost(h, dev.swap.v, UsageCost::Sum, ws), dev.cost_before);
  apply_swap(h, dev.swap);
  EXPECT_EQ(vertex_cost(h, dev.swap.v, UsageCost::Sum, ws), dev.cost_after);
}

TEST(SumEquilibrium, LongCycleIsNotInSumEquilibrium) {
  EXPECT_FALSE(is_sum_equilibrium(cycle(12)));
}

TEST(SumEquilibrium, SmallCyclesAreInSumEquilibrium) {
  // C_3, C_4, C_5 have diameter ≤ 2; by Lemma 6 no swap helps any vertex.
  EXPECT_TRUE(is_sum_equilibrium(cycle(3)));
  EXPECT_TRUE(is_sum_equilibrium(cycle(4)));
  EXPECT_TRUE(is_sum_equilibrium(cycle(5)));
}

TEST(SumEquilibrium, DoubleStarTreeIsNotInSumEquilibrium) {
  // Theorem 1: the only sum-equilibrium tree is the star.
  EXPECT_FALSE(is_sum_equilibrium(double_star(3, 3)));
}

TEST(SumEquilibrium, LiteralFig3AdmitsTheDocumentedImprovingSwap) {
  // Reproduction finding (see gen/paper.hpp): the literal Figure 3 instance
  // is refuted by the d-agent swap onto the dropped vertex's matched
  // partner. Verify the exact documented witness end to end.
  const Graph g = fig3_diameter3_graph();
  const EquilibriumCertificate cert = certify_sum_equilibrium(g);
  EXPECT_FALSE(cert.is_equilibrium);

  const auto [v, remove_w, add_w] = fig3_refuting_swap();
  BfsWorkspace ws;
  const std::uint64_t before = vertex_cost(g, v, UsageCost::Sum, ws);
  Graph h = g;
  apply_swap(h, {v, remove_w, add_w});
  const std::uint64_t after = vertex_cost(h, v, UsageCost::Sum, ws);
  EXPECT_EQ(before, 27u);
  EXPECT_EQ(after, 26u);
}

TEST(SumEquilibrium, LiteralFig3OnlyDAgentsAreUnstable) {
  // The paper's per-vertex case analysis is correct for a, b_i, c_{i,k};
  // only the d_i cases fail. Confirm the refutation is exactly that family.
  const Graph g = fig3_diameter3_graph();
  BfsWorkspace ws;
  for (Vertex i = 1; i <= 3; ++i) {
    EXPECT_TRUE(vertex_is_sum_stable(g, fig3::b(i))) << "b" << i;
    EXPECT_TRUE(vertex_is_sum_stable(g, fig3::c(i, 1)));
    EXPECT_TRUE(vertex_is_sum_stable(g, fig3::c(i, 2)));
    EXPECT_FALSE(vertex_is_sum_stable(g, fig3::d(i))) << "d" << i;
  }
  EXPECT_TRUE(vertex_is_sum_stable(g, fig3::kA));
}

TEST(SumEquilibrium, RepairedN8WitnessIsADiameter3SumEquilibrium) {
  // Theorem 5's statement, upheld by the library's search-found witness.
  const Graph g = diameter3_sum_equilibrium_n8();
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 11u);
  EXPECT_EQ(diameter(g), 3u);
  const EquilibriumCertificate cert = certify_sum_equilibrium(g);
  EXPECT_TRUE(cert.is_equilibrium);
  EXPECT_GT(cert.moves_checked, 0u);
}

TEST(SumEquilibrium, PerVertexScanFindsDeviationOnlyForUnstableAgents) {
  // In a path, inner agents can improve; in a star, nobody can.
  BfsWorkspace ws;
  EXPECT_TRUE(first_sum_deviation(path(6), 0, ws).has_value());
  const Graph s = star(6);
  for (Vertex v = 0; v < 6; ++v) {
    EXPECT_FALSE(first_sum_deviation(s, v, ws).has_value()) << v;
  }
}

TEST(SumEquilibrium, BestDeviationWeaklyBeatsFirst) {
  Xoshiro256ss rng(31);
  BfsWorkspace ws;
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_connected_gnm(15, 20, rng);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const auto first = first_sum_deviation(g, v, ws);
      const auto best = best_sum_deviation(g, v, ws);
      EXPECT_EQ(first.has_value(), best.has_value());
      if (first && best) {
        EXPECT_LE(best->cost_after, first->cost_after);
      }
    }
  }
}

TEST(SumEquilibrium, VertexStabilityMatchesCertifier) {
  Xoshiro256ss rng(33);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = random_connected_gnm(12, 18, rng);
    bool all_stable = true;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      all_stable = all_stable && vertex_is_sum_stable(g, v);
    }
    EXPECT_EQ(all_stable, is_sum_equilibrium(g));
  }
}

TEST(SumEquilibrium, EveryDiameterTwoGraphIsASumEquilibrium) {
  // Corollary of Lemma 6: vertices of local diameter ≤ 2 never gain, so any
  // diameter-≤2 graph certifies. This is why all pre-paper equilibrium
  // examples had diameter 2 and why Theorem 5's separation needed work.
  Xoshiro256ss rng(212);
  int diameter2_instances = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const Graph g = random_connected_gnm(12, 30 + trial, rng);
    if (diameter(g) > 2) continue;
    ++diameter2_instances;
    EXPECT_TRUE(is_sum_equilibrium(g)) << to_string(g);
  }
  EXPECT_GT(diameter2_instances, 3);  // the sweep actually exercised the claim
}

// ---------------------------------------------------------------- max model

TEST(MaxEquilibrium, StarIsInMaxEquilibrium) {
  EXPECT_TRUE(is_max_equilibrium(star(7)));
}

TEST(MaxEquilibrium, DoubleStarWithTwoLeavesPerSideIsInMaxEquilibrium) {
  // Figure 2: double-stars need ≥ 2 leaves on each root (§2.2).
  EXPECT_TRUE(is_max_equilibrium(double_star(2, 2)));
  EXPECT_TRUE(is_max_equilibrium(double_star(3, 5)));
}

TEST(MaxEquilibrium, DoubleStarWithOneLeafIsNotInMaxEquilibrium) {
  // With a single leaf a on root v, the swap av → aw restores nothing:
  // a can improve (or the deletion clause fails) — the paper's "at least
  // two leaves attached to each star root" condition.
  EXPECT_FALSE(is_max_equilibrium(double_star(1, 2)));
  EXPECT_FALSE(is_max_equilibrium(double_star(1, 1)));
}

TEST(MaxEquilibrium, CompleteGraphFailsDeletionCriticality) {
  // Deleting one edge of K_n (n ≥ 4) leaves eccentricity 1 → 2 for its
  // endpoints? No: endpoints reach each other via a third vertex, so their
  // local diameter goes 1 → 2... which IS a strict increase. For n ≥ 4 every
  // other pair stays at distance 1, so K_n is deletion-critical; and no swap
  // can improve eccentricity 1. Hence K_n IS a max equilibrium.
  EXPECT_TRUE(is_max_equilibrium(complete(5)));
}

TEST(MaxEquilibrium, CycleWithChordFailsDeletionClause) {
  // C_6 plus a long chord: the chord can be deleted without raising its
  // endpoints' eccentricity? Build C_8 + chord 0–2: deleting 0–2 leaves
  // ecc(0) unchanged (paths via 1). The deletion clause must flag it.
  Graph g = cycle(8);
  g.add_edge(0, 2);
  const EquilibriumCertificate cert = certify_max_equilibrium(g);
  EXPECT_FALSE(cert.is_equilibrium);
}

TEST(MaxEquilibrium, PathIsNotInMaxEquilibrium) {
  EXPECT_FALSE(is_max_equilibrium(path(6)));
}

TEST(MaxEquilibrium, RotatedTorusIsInMaxEquilibrium) {
  // Theorem 12, certified exhaustively for k = 3 (n = 18).
  const DiagonalTorus torus = rotated_torus(3);
  EXPECT_TRUE(is_max_equilibrium(torus.graph()));
}

TEST(MaxEquilibrium, StandardTorusIsNotInMaxEquilibrium) {
  // The paper's pointed remark: "a standard torus is not in max
  // equilibrium, so the precise definition is critical."
  EXPECT_FALSE(is_max_equilibrium(torus_standard(6, 6)));
}

TEST(MaxEquilibrium, NonCriticalDeleteWitnessIsReportedAsSuch) {
  Graph g = cycle(8);
  g.add_edge(0, 2);
  const EquilibriumCertificate cert = certify_max_equilibrium(g);
  ASSERT_TRUE(cert.witness.has_value());
  // Either an improving swap or a non-critical deletion is a valid witness;
  // verify the reported kind is consistent with its costs.
  if (cert.witness->kind == Deviation::Kind::NonCriticalDelete) {
    EXPECT_LE(cert.witness->cost_after, cert.witness->cost_before + 0);
  } else {
    EXPECT_LT(cert.witness->cost_after, cert.witness->cost_before);
  }
}

// --------------------------------------- deletion-critical / insertion-stable

TEST(StructuralProperties, TreesAreDeletionCritical) {
  // Deleting any tree edge disconnects → +∞ local diameter for both sides.
  EXPECT_TRUE(is_deletion_critical(path(6)));
  EXPECT_TRUE(is_deletion_critical(star(6)));
  EXPECT_TRUE(is_deletion_critical(double_star(2, 2)));
}

TEST(StructuralProperties, EvenCycleDeletionCriticality) {
  // C_6: deleting any edge turns it into P_6; endpoint eccentricity
  // 3 → 5, strictly worse. Deletion-critical.
  EXPECT_TRUE(is_deletion_critical(cycle(6)));
}

TEST(StructuralProperties, ChordedCycleIsNotDeletionCritical) {
  Graph g = cycle(8);
  g.add_edge(0, 2);
  EXPECT_FALSE(is_deletion_critical(g));
}

TEST(StructuralProperties, RotatedTorusIsDeletionCriticalAndInsertionStable) {
  // The exact property pair Theorem 12 establishes.
  const DiagonalTorus torus = rotated_torus(3);
  EXPECT_TRUE(is_deletion_critical(torus.graph()));
  EXPECT_TRUE(is_insertion_stable(torus.graph()));
}

TEST(StructuralProperties, PathIsNotInsertionStable) {
  EXPECT_FALSE(is_insertion_stable(path(5)));
}

TEST(StructuralProperties, CompleteGraphIsVacuouslyInsertionStable) {
  EXPECT_TRUE(is_insertion_stable(complete(5)));
}

TEST(StructuralProperties, InsertionStablePlusDeletionCriticalImpliesMaxEq) {
  // The paper's implication, checked over a family of instances.
  Xoshiro256ss rng(77);
  std::vector<Graph> instances;
  instances.push_back(rotated_torus(3).graph());
  instances.push_back(star(9));
  instances.push_back(cycle(5));
  instances.push_back(double_star(2, 3));
  for (int t = 0; t < 6; ++t) instances.push_back(random_connected_gnm(10, 14, rng));
  for (const Graph& g : instances) {
    if (is_insertion_stable(g) && is_deletion_critical(g)) {
      EXPECT_TRUE(is_max_equilibrium(g)) << to_string(g);
    }
  }
}

TEST(StructuralProperties, DisconnectedGraphsFailEverything) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_deletion_critical(g));
  EXPECT_FALSE(is_insertion_stable(g));
}

// ------------------------------------------------------- Lemma 2 (balance)

TEST(Lemma2, LocalDiametersDifferByAtMostOneInMaxEquilibria) {
  // Check on every certified max equilibrium we know.
  for (const Graph& g : {star(8), double_star(2, 2), double_star(4, 3),
                         rotated_torus(3).graph(), complete(6)}) {
    ASSERT_TRUE(is_max_equilibrium(g));
    const auto ecc = eccentricities(g);
    const Vertex lo = *std::min_element(ecc.begin(), ecc.end());
    const Vertex hi = *std::max_element(ecc.begin(), ecc.end());
    EXPECT_LE(hi - lo, 1u) << to_string(g);
  }
}

TEST(Certifier, ParallelCertifierMatchesSerialPerVertexScan) {
  // The OpenMP-parallel certifier must agree with a plain serial sweep of
  // the per-vertex scanners on both verdict and (non)existence of witnesses.
  Xoshiro256ss rng(332);
  BfsWorkspace ws;
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = random_connected_gnm(14, 20 + trial, rng);
    bool serial_stable = true;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      serial_stable = serial_stable && !best_sum_deviation(g, v, ws).has_value();
    }
    const EquilibriumCertificate cert = certify_sum_equilibrium(g);
    EXPECT_EQ(cert.is_equilibrium, serial_stable) << to_string(g);
    EXPECT_EQ(cert.witness.has_value(), !serial_stable);
  }
}

TEST(Certifier, WitnessCostsAreConsistent) {
  // Whenever a witness is reported, replaying it must reproduce both costs.
  Xoshiro256ss rng(333);
  BfsWorkspace ws;
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = random_connected_gnm(12, 15, rng);
    const EquilibriumCertificate cert = certify_sum_equilibrium(g);
    if (!cert.witness) continue;
    Graph h = g;
    EXPECT_EQ(vertex_cost(h, cert.witness->swap.v, UsageCost::Sum, ws),
              cert.witness->cost_before);
    apply_swap(h, cert.witness->swap);
    EXPECT_EQ(vertex_cost(h, cert.witness->swap.v, UsageCost::Sum, ws),
              cert.witness->cost_after);
  }
}

TEST(Certifier, TinyGraphs) {
  // n ≤ 2: no legal improving swap can exist; certifiers must not crash.
  EXPECT_TRUE(is_sum_equilibrium(Graph(1)));
  Graph k2(2);
  k2.add_edge(0, 1);
  EXPECT_TRUE(is_sum_equilibrium(k2));
  EXPECT_TRUE(is_max_equilibrium(k2));
  EXPECT_TRUE(is_sum_equilibrium(complete(3)));
}

TEST(Certifier, MovesCheckedGrowsWithInstanceSize) {
  const auto small = certify_sum_equilibrium(star(6));
  const auto large = certify_sum_equilibrium(star(16));
  EXPECT_GT(large.moves_checked, small.moves_checked);
}

// ------------------------------------------------------------- public API

void expect_same_deviation(const std::optional<Deviation>& got,
                           const std::optional<Deviation>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->swap.v, want->swap.v);
  EXPECT_EQ(got->swap.remove_w, want->swap.remove_w);
  EXPECT_EQ(got->swap.add_w, want->swap.add_w);
  EXPECT_EQ(got->cost_before, want->cost_before);
  EXPECT_EQ(got->cost_after, want->cost_after);
  EXPECT_EQ(got->kind, want->kind);
}

// The public entry points reach the engine at every n: no size gate sends
// large instances to the Θ(n³) naive scan. n = 4097 is one past the cap
// such a gate once had; through the naive path this test would run far
// past its ctest TIMEOUT. Not in the BNCG_FORCE_NAIVE ctest entry's
// filter, and skipped when the toggle is set, for that same reason.
TEST(PublicApi, MaxCertifierAboveFormerNaiveCapMatchesEngine) {
  if (force_naive_requested()) GTEST_SKIP() << "BNCG_FORCE_NAIVE routes to the Θ(n³) oracle";
  const Graph g = star(4097);
  SwapEngine engine(g);

  // The oracle's certificate in closed form (its Θ(n³) run is what this
  // test must not take): a star is a max equilibrium, and the scan counts
  // one move per leaf swap target, 4,095 per leaf, plus one deletion check
  // per edge endpoint.
  const EquilibriumCertificate got = certify_max_equilibrium(g);
  EXPECT_TRUE(got.is_equilibrium);
  EXPECT_FALSE(got.witness.has_value());
  EXPECT_EQ(got.moves_checked, std::uint64_t{4096} * 4095 + 2 * 4096);

  const Vertex leaf = 4096;
  BfsWorkspace ws;
  expect_same_deviation(best_max_deviation(g, leaf, ws),
                        engine.best_deviation(leaf, UsageCost::Max));
}

}  // namespace
}  // namespace bncg
