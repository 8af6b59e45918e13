// Seeded property harness over random instances — CTest labels
// "tier1;property" (run alone with `ctest -L property`). These are the
// repo-wide invariants that tie the incremental search machinery, the
// certifiers, and the paper's structural lemmas together:
//
//   P1  unrest == 0  ⟺  the matching certifier passes (both models through
//       the engine-backed potentials, the sum model also through the
//       incremental SearchState);
//   P2  every max swap equilibrium is deletion-critical (each endpoint of
//       each edge owns the deletion move, so the deletion clause covers
//       both sides);
//   P3  an anneal result, when non-nullopt, certifies and sits exactly on
//       the configured diameter;
//   P4  identical AnnealConfigs give identical trajectories across
//       repeated runs (seed reproducibility);
//   P5  k-move monotonicity: k-stability (insertion and swap) implies
//       (k−1)-stability, and max_tolerated_insertions is exactly the
//       threshold of the per-k verdicts;
//   P6  the k = 1 boundary: swap-stability is 1-move consistent with the
//       basic-game certifiers, and 1-insertion verdicts match the
//       insertion-stability predicate;
//   P7  every max swap equilibrium survives 1-swap-deviation scrutiny at
//       every agent — the k-move analogue of deletion-criticality on the
//       Theorem 12 axis.
#include <gtest/gtest.h>

#include "core/certify_sharded.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/kstability.hpp"
#include "core/search.hpp"
#include "core/search_state.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

Graph random_connected(Xoshiro256ss& rng) {
  const Vertex n = 6 + static_cast<Vertex>(rng.below(11));  // 6..16
  const std::size_t extra = rng.below(n);
  return random_connected_gnm(n, n - 1 + extra, rng);
}

TEST(PropertyRandom, UnrestZeroIffSumCertifierPasses) {
  Xoshiro256ss rng(0x9001);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = random_connected(rng);
    const bool certified = certify_sum_equilibrium(g).is_equilibrium;
    EXPECT_EQ(sum_unrest(g) == 0, certified) << "trial " << trial;
    SearchState state(g);
    EXPECT_EQ(state.unrest() == 0, certified) << "trial " << trial;
  }
}

TEST(PropertyRandom, UnrestZeroIffMaxCertifierPasses) {
  Xoshiro256ss rng(0x9002);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = random_connected(rng);
    const bool certified = certify_max_equilibrium(g).is_equilibrium;
    EXPECT_EQ(max_unrest(g) == 0, certified) << "trial " << trial;
  }
}

TEST(PropertyRandom, KnownEquilibriaAnchorTheEquivalence) {
  // Fixed points pin the ⟺ in both directions on known instances.
  EXPECT_EQ(sum_unrest(star(10)), 0u);
  EXPECT_EQ(sum_unrest(complete(7)), 0u);
  EXPECT_EQ(sum_unrest(diameter3_sum_equilibrium_n8()), 0u);
  EXPECT_EQ(max_unrest(star(10)), 0u);
  EXPECT_GT(sum_unrest(path(9)), 0u);
  EXPECT_GT(max_unrest(cycle(9)), 0u);
}

TEST(PropertyRandom, MaxEquilibriaAreDeletionCritical) {
  // P2: drive max dynamics (neutral deletions on) to convergence; every
  // reached max equilibrium must survive is_deletion_critical.
  Xoshiro256ss rng(0x9003);
  int reached = 0;
  for (int trial = 0; trial < 25; ++trial) {
    DynamicsConfig config;
    config.cost = UsageCost::Max;
    config.allow_neutral_deletions = true;
    config.max_moves = 20'000;
    config.seed = rng();
    const DynamicsResult r = run_dynamics(random_connected(rng), config);
    if (!r.converged) continue;
    ASSERT_TRUE(is_max_equilibrium(r.graph)) << "trial " << trial;
    EXPECT_TRUE(is_deletion_critical(r.graph)) << "trial " << trial;
    ++reached;
  }
  EXPECT_GT(reached, 0);  // the property must actually have been exercised
}

TEST(PropertyRandom, ShardedCertifyWitnessesRespectDeletionCriticality) {
  // P2 through the sharded driver: a graph it certifies as a max
  // equilibrium (deletion clause on) must be deletion-critical, and a
  // NonCriticalDelete witness it reports is a constructive refutation of
  // deletion-criticality — check both directions of the implication on the
  // driver's own output.
  Xoshiro256ss rng(0x9007);
  int critical_seen = 0;
  int witness_seen = 0;
  // Anchors pin the certifying direction deterministically (stars and
  // double stars are max equilibria, hence deletion-critical); the random
  // pool supplies refuting witnesses.
  std::vector<Graph> pool = {star(10), double_star(3, 4)};
  for (int trial = 0; trial < 30; ++trial) pool.push_back(random_connected(rng));
  for (std::size_t trial = 0; trial < pool.size(); ++trial) {
    const Graph& g = pool[trial];
    const ShardedCertificate cert =
        certify_sharded(g, UsageCost::Max, /*include_deletions=*/true);
    if (cert.certificate.is_equilibrium) {
      EXPECT_TRUE(is_deletion_critical(g)) << "trial " << trial;
      ++critical_seen;
      continue;
    }
    ASSERT_TRUE(cert.certificate.witness.has_value()) << "trial " << trial;
    const Deviation& w = *cert.certificate.witness;
    if (w.kind != Deviation::Kind::NonCriticalDelete) continue;
    ++witness_seen;
    EXPECT_FALSE(is_deletion_critical(g)) << "trial " << trial;
    // The witness is constructive: deleting {v, remove_w} must not
    // strictly increase the deleter's local diameter.
    Graph deleted = g;
    deleted.remove_edge(w.swap.v, w.swap.remove_w);
    BfsWorkspace ws;
    EXPECT_LE(vertex_cost(deleted, w.swap.v, UsageCost::Max, ws), w.cost_before)
        << "trial " << trial;
  }
  // Both directions must actually have been exercised on the seeded pool.
  EXPECT_GT(critical_seen + witness_seen, 0);
}

TEST(PropertyRandom, AnnealResultsCertifyOnTheTargetDiameter) {
  // P3, both models: whatever the anneal returns must certify and sit
  // exactly on the configured diameter.
  Xoshiro256ss rng(0x9004);
  int found = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Graph start = random_connected(rng);
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      AnnealConfig config;
      config.cost = model;
      config.steps = 1500;
      config.seed = rng();
      config.target_diameter = 2;
      const auto result = anneal_equilibrium(start, config);
      if (!result) continue;
      ++found;
      EXPECT_EQ(diameter(*result), config.target_diameter);
      if (model == UsageCost::Sum) {
        EXPECT_TRUE(is_sum_equilibrium(*result));
        EXPECT_EQ(sum_unrest(*result), 0u);
      } else {
        EXPECT_TRUE(is_max_equilibrium(*result));
        EXPECT_EQ(max_unrest(*result), 0u);
      }
    }
  }
  EXPECT_GT(found, 0);
}

TEST(PropertyRandom, AnnealTrajectoriesAreSeedReproducible) {
  // P4: one seed drives every draw, so rerunning an identical config must
  // reproduce the identical outcome and counters (tests/test_search.cpp
  // pins seeded trajectories outright).
  Xoshiro256ss rng(0x9005);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph start = random_connected(rng);
    AnnealConfig config;
    config.cost = trial % 2 == 0 ? UsageCost::Sum : UsageCost::Max;
    config.steps = 600;
    config.seed = 0xFEED + trial;
    config.target_diameter = diameter(start);
    AnnealStats first_stats;
    AnnealStats second_stats;
    const auto first = anneal_equilibrium(start, config, &first_stats);
    const auto second = anneal_equilibrium(start, config, &second_stats);
    ASSERT_EQ(first.has_value(), second.has_value()) << "trial " << trial;
    if (first) EXPECT_EQ(*first, *second) << "trial " << trial;
    EXPECT_EQ(first_stats.proposals, second_stats.proposals);
    EXPECT_EQ(first_stats.evaluated, second_stats.evaluated);
    EXPECT_EQ(first_stats.accepted, second_stats.accepted);
    EXPECT_EQ(first_stats.final_unrest, second_stats.final_unrest);
    EXPECT_EQ(first_stats.final_fingerprint, second_stats.final_fingerprint);
  }
}

TEST(PropertyRandom, DynamicsEquilibriaHaveZeroUnrest) {
  // Dynamics and search agree on what "done" means: a converged dynamics
  // run is a zero of the matching unrest potential.
  Xoshiro256ss rng(0x9006);
  for (int trial = 0; trial < 10; ++trial) {
    DynamicsConfig config;
    config.cost = trial % 2 == 0 ? UsageCost::Sum : UsageCost::Max;
    config.allow_neutral_deletions = config.cost == UsageCost::Max;
    config.max_moves = 20'000;
    config.seed = rng();
    const DynamicsResult r = run_dynamics(random_connected(rng), config);
    if (!r.converged) continue;
    if (config.cost == UsageCost::Sum) {
      EXPECT_EQ(sum_unrest(r.graph), 0u) << "trial " << trial;
    } else {
      EXPECT_EQ(max_unrest(r.graph), 0u) << "trial " << trial;
    }
  }
}

TEST(PropertyRandom, KStabilityIsDownwardMonotone) {
  // P5: a k-move deviation neighborhood contains every (k−1)-move one, so
  // instability at k−1 forces instability at k — equivalently, k-stable ⟹
  // (k−1)-stable — for both the insertion and the swap variant. And
  // max_tolerated_insertions must be exactly the step where the per-k
  // verdict flips.
  Xoshiro256ss rng(0x9008);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = random_connected(rng);
    bool prev_insert_stable = true;
    for (Vertex k = 1; k <= 3; ++k) {
      const bool stable = insertion_stability(g, k).stable;
      if (k > 1 && stable) {
        EXPECT_TRUE(prev_insert_stable) << "trial " << trial << " k=" << k;
      }
      prev_insert_stable = stable;
    }
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const Vertex tolerated = max_tolerated_insertions(g, v, 3);
      for (Vertex k = 1; k <= 3; ++k) {
        EXPECT_EQ(insertion_stability_at(g, v, k).stable, k <= tolerated)
            << "trial " << trial << " v=" << v << " k=" << k;
      }
      const bool swap1 = swap_stability_at(g, v, 1).stable;
      if (swap_stability_at(g, v, 2).stable) {
        EXPECT_TRUE(swap1) << "trial " << trial << " v=" << v;
      }
    }
  }
}

TEST(PropertyRandom, OneMoveBoundaryMatchesBasicGameCertifiers) {
  // P6: at k = 1 the k-move machinery must collapse onto the basic game's
  // own predicates — insertion_stability(g, 1) ⟺ is_insertion_stable(g).
  Xoshiro256ss rng(0x9009);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = random_connected(rng);
    EXPECT_EQ(insertion_stability(g, 1).stable, is_insertion_stable(g)) << "trial " << trial;
  }
  EXPECT_EQ(insertion_stability(star(10), 1).stable, is_insertion_stable(star(10)));
  EXPECT_EQ(insertion_stability(cycle(9), 1).stable, is_insertion_stable(cycle(9)));
}

TEST(PropertyRandom, MaxEquilibriaSurviveOneSwapDeviations) {
  // P7: Theorem 12's computational-power axis at k = 1 — a max swap
  // equilibrium must leave no agent with an improving single
  // delete-and-reinsert deviation (the k-move analogue of the
  // deletion-criticality property P2 certifies).
  Xoshiro256ss rng(0x900A);
  int reached = 0;
  for (int trial = 0; trial < 15 && reached < 6; ++trial) {
    DynamicsConfig config;
    config.cost = UsageCost::Max;
    config.allow_neutral_deletions = true;
    config.max_moves = 20'000;
    config.seed = rng();
    const DynamicsResult r = run_dynamics(random_connected(rng), config);
    if (!r.converged) continue;
    ASSERT_TRUE(is_max_equilibrium(r.graph)) << "trial " << trial;
    for (Vertex v = 0; v < r.graph.num_vertices(); ++v) {
      EXPECT_TRUE(swap_stability_at(r.graph, v, 1).stable)
          << "trial " << trial << " v=" << v;
    }
    ++reached;
  }
  EXPECT_GT(reached, 0);  // the property must actually have been exercised
  // Anchor: the star is a max equilibrium and 1-swap stable everywhere.
  for (Vertex v = 0; v < 10; ++v) {
    EXPECT_TRUE(swap_stability_at(star(10), v, 1).stable);
  }
}

}  // namespace
}  // namespace bncg
