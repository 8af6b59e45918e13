// Differential suite for the SwapEngine k-move deviation paths
// (DESIGN.md §14): over 200+ seeded random and structured instances, the
// engine's insertion_stability_at / insertion_stability /
// max_tolerated_insertions / swap_stability_at must agree with the
// bncg::naive oracles on the VERDICT and the full WITNESS
// (witness_vertex, witness_endpoints, witness_deletions — same vertices in
// the same order), at both storage widths (ForceU8 / ForceU16) and at both
// SIMD dispatch extremes (forced scalar vs the highest level this CPU
// runs). Thread-count invariance of insertion_stability's parallel sweep is
// certified transitively: the suite runs under BNCG_THREADS=1 and =4 via
// the kstability_engine_threads{1,4} CTest entries, and since the naive
// oracle is thread-independent, engine == naive at both counts forces
// engine(1) == engine(4) — witnesses included.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/kstability.hpp"
#include "core/swap_engine.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/apsp.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bncg {
namespace {

struct LevelGuard {
  SimdLevel saved = simd_active_level();
  ~LevelGuard() { simd_set_level(saved); }
};

/// Both dispatch extremes: forced scalar and the binary's best level.
std::vector<SimdLevel> extreme_levels() {
  return {SimdLevel::Scalar, simd_max_level()};
}

void expect_same_report(const KStabilityReport& got, const KStabilityReport& want,
                        const std::string& context) {
  EXPECT_EQ(got.stable, want.stable) << context;
  EXPECT_EQ(got.witness_vertex, want.witness_vertex) << context;
  EXPECT_EQ(got.witness_endpoints, want.witness_endpoints) << context;
  EXPECT_EQ(got.witness_deletions, want.witness_deletions) << context;
}

/// Connected instance pool: random sparse/mid/dense families, trees, and
/// the constructions whose k-stability the paper actually talks about.
Graph instance(int trial, Xoshiro256ss& rng) {
  switch (trial % 8) {
    case 0: {
      const Vertex n = 6 + static_cast<Vertex>(rng.below(11));
      const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
      const std::size_t m =
          std::clamp<std::size_t>(10 + rng.below(20), std::size_t{n} - 1, max_edges);
      return random_connected_gnm(n, m, rng);
    }
    case 1:
      return random_tree(6 + static_cast<Vertex>(rng.below(11)), rng);
    case 2:
      return cycle(5 + static_cast<Vertex>(rng.below(12)));
    case 3:
      return path(5 + static_cast<Vertex>(rng.below(12)));
    case 4:
      return rotated_torus(2 + static_cast<Vertex>(rng.below(2))).graph();
    case 5:
      return double_star(2 + static_cast<Vertex>(rng.below(4)),
                         2 + static_cast<Vertex>(rng.below(4)));
    case 6: {
      const Vertex n = 8 + static_cast<Vertex>(rng.below(9));
      return random_connected_gnm(n, n + rng.below(2 * n), rng);
    }
    default:
      return hypercube(3 + static_cast<Vertex>(rng.below(2)));
  }
}

TEST(KStabilityEngine, InsertionVerdictAndWitnessParity) {
  // 2 SIMD extremes × 104 instances × k ∈ {1,2,3} × every agent, at both
  // widths, against the DistanceMatrix-based exact reference (which is what
  // naive::insertion_stability_at wraps). 208 instances total.
  LevelGuard guard;
  for (const SimdLevel level : extreme_levels()) {
    ASSERT_EQ(simd_set_level(level), level);
    Xoshiro256ss rng(0xA110);
    for (int trial = 0; trial < 104; ++trial) {
      const Graph g = instance(trial, rng);
      const DistanceMatrix dm(g);
      SwapEngine e8(g, ResourceConfig{.width = WidthPolicy::ForceU8});
      SwapEngine e16(g, ResourceConfig{.width = WidthPolicy::ForceU16});
      SwapEngine::Scratch s8, s16;
      for (Vertex k = 1; k <= 3; ++k) {
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          const std::string ctx = std::string(simd_level_name(level)) + " trial " +
                                  std::to_string(trial) + " v=" + std::to_string(v) +
                                  " k=" + std::to_string(k);
          const KStabilityReport want = insertion_stability_at(dm, v, k);
          expect_same_report(e8.insertion_stability_at(v, k, s8), want, ctx + " u8");
          expect_same_report(e16.insertion_stability_at(v, k, s16), want, ctx + " u16");
        }
        // Whole-graph sweep: the parallel engine fold must land on the
        // naive sequential answer — the earliest unstable agent.
        const KStabilityReport want_sweep = naive::insertion_stability(g, k);
        expect_same_report(e8.insertion_stability(k), want_sweep,
                           "sweep u8 trial " + std::to_string(trial));
        expect_same_report(e16.insertion_stability(k), want_sweep,
                           "sweep u16 trial " + std::to_string(trial));
      }
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const Vertex want_tol = max_tolerated_insertions(dm, v, 3);
        EXPECT_EQ(e8.max_tolerated_insertions(v, 3, s8), want_tol);
        EXPECT_EQ(e16.max_tolerated_insertions(v, 3, s16), want_tol);
      }
    }
  }
}

TEST(KStabilityEngine, SwapVerdictAndWitnessParity) {
  // The swap variant enumerates deletion subsets, so the oracle pays one
  // DistanceMatrix per subset — instances stay small. Witness parity covers
  // witness_deletions too (the subset in naive bit order).
  LevelGuard guard;
  for (const SimdLevel level : extreme_levels()) {
    ASSERT_EQ(simd_set_level(level), level);
    Xoshiro256ss rng(0x5A9B);
    for (int trial = 0; trial < 104; ++trial) {
      const Graph g = instance(trial, rng);
      if (g.num_vertices() > 24) continue;  // oracle cost guard
      SwapEngine e8(g, ResourceConfig{.width = WidthPolicy::ForceU8});
      SwapEngine e16(g, ResourceConfig{.width = WidthPolicy::ForceU16});
      SwapEngine::Scratch s8, s16;
      for (Vertex k = 1; k <= 2; ++k) {
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          const std::string ctx = std::string(simd_level_name(level)) + " swap trial " +
                                  std::to_string(trial) + " v=" + std::to_string(v) +
                                  " k=" + std::to_string(k);
          const KStabilityReport want = naive::swap_stability_at(g, v, k);
          expect_same_report(e8.swap_stability_at(v, k, s8), want, ctx + " u8");
          expect_same_report(e16.swap_stability_at(v, k, s16), want, ctx + " u16");
        }
      }
    }
  }
}

TEST(KStabilityEngine, RoutedEntryPointsMatchOracles) {
  // The public Graph-level functions route through the engine here (small n,
  // BNCG_FORCE_NAIVE unset in this harness): spot-check they give oracle
  // answers, so routing introduces no drift on top of the engine parity
  // above. Also pins the paper-fact baseline the bench leans on: Theorem 12
  // guarantees the dim-dimensional diagonal torus tolerates at least dim − 1
  // insertions (small side lengths can tolerate more, so only the lower
  // bound is asserted).
  Xoshiro256ss rng(0xC0DE);
  for (int trial = 0; trial < 24; ++trial) {
    const Graph g = instance(trial, rng);
    for (Vertex k = 1; k <= 2; ++k) {
      expect_same_report(insertion_stability(g, k), naive::insertion_stability(g, k),
                         "routed sweep trial " + std::to_string(trial));
      expect_same_report(insertion_stability_at(g, 0, k), naive::insertion_stability_at(g, 0, k),
                         "routed at trial " + std::to_string(trial));
      expect_same_report(swap_stability_at(g, 0, k), naive::swap_stability_at(g, 0, k),
                         "routed swap trial " + std::to_string(trial));
    }
    EXPECT_EQ(max_tolerated_insertions(g, 0, 3), naive::max_tolerated_insertions(g, 0, 3));
  }

  const DiagonalTorus torus(3, 3);  // n = 54, degree 8, tolerance ≥ dim − 1
  EXPECT_TRUE(insertion_stability(torus.graph(), 2).stable);
  EXPECT_GE(max_tolerated_insertions(torus.graph(), 0, 3), 2u);
}

}  // namespace
}  // namespace bncg
