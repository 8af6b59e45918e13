// Differential tests: the delta-evaluation SwapEngine against the naive
// BFS-per-candidate oracle, over hundreds of random instances in both usage
// cost models. The engine mirrors the oracle's scan order and acceptance
// rules, so per-agent deviations must agree *exactly* (same swap, same
// costs, same kind, same move counts), and so must whole-graph
// certificates through certify_sharded (verdict, witness, move counts).
#include "core/swap_engine.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "certificate_oracle.hpp"
#include "core/certify_sharded.hpp"
#include "core/equilibrium.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

void expect_same_deviation(const std::optional<Deviation>& got,
                           const std::optional<Deviation>& want, const char* what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) return;
  EXPECT_EQ(got->swap, want->swap) << what;
  EXPECT_EQ(got->cost_before, want->cost_before) << what;
  EXPECT_EQ(got->cost_after, want->cost_after) << what;
  EXPECT_EQ(got->kind, want->kind) << what;
}

/// Compares every per-agent scan variant on one instance.
void expect_engine_matches_oracle(const Graph& g) {
  SwapEngine engine(g);
  SwapEngine::Scratch scratch;
  BfsWorkspace ws;
  const Vertex n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    // Per-agent move accounting: the full scan enumerates one candidate per
    // (incident edge, non-neighbor ≠ v) pair, plus one deletion check per
    // incident edge when the max deletion clause participates.
    const std::uint64_t swap_moves =
        static_cast<std::uint64_t>(g.degree(v)) * (n - 1 - g.degree(v));
    std::uint64_t engine_moves = 0;

    expect_same_deviation(engine.best_deviation(v, UsageCost::Sum, scratch, false, &engine_moves),
                          naive::best_sum_deviation(g, v, ws), "best sum");
    EXPECT_EQ(engine_moves, swap_moves);
    expect_same_deviation(engine.first_deviation(v, UsageCost::Sum, scratch),
                          naive::first_sum_deviation(g, v, ws), "first sum");
    engine_moves = 0;
    expect_same_deviation(
        engine.best_deviation(v, UsageCost::Max, scratch, /*include_deletions=*/true,
                              &engine_moves),
        [&] {
          // Oracle "best with deletions" mirrors the max certifier's
          // per-agent scan: best improving swap, with NonCriticalDelete
          // witnesses competing under the certifier's tie rule — recover it
          // from the single-vertex subgraph certificate.
          auto best = naive::best_max_deviation(g, v, ws);
          if (!best) {
            // No improving swap: the first neutral deletion (if any) is what
            // the deletion-inclusive scan reports.
            best = naive::first_max_deviation(g, v, ws, /*include_deletions=*/true);
          }
          return best;
        }(),
        "best max+del");
    EXPECT_EQ(engine_moves, swap_moves + g.degree(v));
    expect_same_deviation(engine.best_deviation(v, UsageCost::Max, scratch),
                          naive::best_max_deviation(g, v, ws), "best max");
    expect_same_deviation(
        engine.first_deviation(v, UsageCost::Max, scratch, /*include_deletions=*/true),
        naive::first_max_deviation(g, v, ws, /*include_deletions=*/true), "first max+del");
  }
}

/// Whole-graph certificates: verdict, witness, move counts.
void expect_certificates_match(const Graph& g) {
  expect_same_certificate(certify_sharded(g, UsageCost::Sum).certificate,
                          naive::certify_sum_equilibrium(g), "sum");
  expect_same_certificate(certify_sharded(g, UsageCost::Max, true).certificate,
                          naive::certify_max_equilibrium(g), "max+del");
}

// --------------------------------------------------- randomized differential

TEST(SwapEngineDifferential, RandomConnectedGnmAgainstOracle) {
  // The headline differential battery: ≥200 connected G(n, m) instances,
  // every agent, both models, exact agreement.
  Xoshiro256ss rng(0x5EED0);
  for (int trial = 0; trial < 140; ++trial) {
    const Vertex n = 5 + static_cast<Vertex>(rng.below(16));
    const std::size_t max_extra = static_cast<std::size_t>(n) * (n - 1) / 2 - (n - 1);
    const std::size_t m = (n - 1) + rng.below(std::min<std::size_t>(max_extra, 2 * n) + 1);
    const Graph g = random_connected_gnm(n, m, rng);
    expect_engine_matches_oracle(g);
  }
}

TEST(SwapEngineDifferential, RandomTreesAgainstOracle) {
  // Trees drive the sparse queue-BFS fallback inside the engine's APSP.
  Xoshiro256ss rng(0x7EE);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 4 + static_cast<Vertex>(rng.below(14));
    expect_engine_matches_oracle(random_tree(n, rng));
  }
}

TEST(SwapEngineDifferential, DisconnectedGraphsAgainstOracle) {
  // Disconnected instances exercise the ∞-cost paths (reconnecting swaps,
  // far sets containing unreachable vertices).
  Xoshiro256ss rng(0xD15);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 5 + static_cast<Vertex>(rng.below(12));
    const Graph g = random_gnm(n, n - 2, rng);
    expect_engine_matches_oracle(g);
  }
}

TEST(SwapEngineDifferential, CertificatesOnRandomInstances) {
  Xoshiro256ss rng(0xCE27);
  for (int trial = 0; trial < 60; ++trial) {
    const Vertex n = 5 + static_cast<Vertex>(rng.below(12));
    const std::size_t m = (n - 1) + rng.below(n + 1);
    expect_certificates_match(random_connected_gnm(n, m, rng));
  }
}

// ------------------------------------------------------------- known cases

TEST(SwapEngine, AgreesOnClassicFamilies) {
  for (const Graph& g : {star(9), complete(7), path(8), cycle(5), cycle(12)}) {
    expect_engine_matches_oracle(g);
    expect_certificates_match(g);
  }
}

TEST(SwapEngine, StarIsStableUnderBothModels) {
  EXPECT_TRUE(certify_sharded(star(10), UsageCost::Sum).certificate.is_equilibrium);
  EXPECT_TRUE(certify_sharded(star(10), UsageCost::Max).certificate.is_equilibrium);
}

TEST(SwapEngine, WitnessReplaysToClaimedCost) {
  // Machine-check the engine's witness: applying the swap must produce
  // exactly the claimed post-move cost.
  Xoshiro256ss rng(0x11E9);
  BfsWorkspace ws;
  for (int trial = 0; trial < 30; ++trial) {
    const Vertex n = 6 + static_cast<Vertex>(rng.below(12));
    const Graph g = random_connected_gnm(n, n + rng.below(n), rng);
    SwapEngine engine(g);
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const auto dev = [&]() -> std::optional<Deviation> {
        SwapEngine::Scratch scratch;
        for (Vertex v = 0; v < n; ++v) {
          if (auto d = engine.best_deviation(v, model, scratch)) return d;
        }
        return std::nullopt;
      }();
      if (!dev) continue;
      Graph h = g;
      EXPECT_EQ(vertex_cost(h, dev->swap.v, model, ws), dev->cost_before);
      apply_swap(h, dev->swap);
      EXPECT_EQ(vertex_cost(h, dev->swap.v, model, ws), dev->cost_after);
      EXPECT_LT(dev->cost_after, dev->cost_before);
    }
  }
}

TEST(SwapEngine, RebuildTracksGraphMutations) {
  Graph g = path(7);
  SwapEngine engine(g);
  AgentRange all;
  all.hi = g.num_vertices();
  const ShardResult before = certify_agent_range(engine, all, UsageCost::Sum);
  ASSERT_TRUE(before.best.has_value());
  // Apply the witness and rebuild: the scans must now reflect the new
  // configuration (identical to the oracle on the mutated graph).
  apply_swap(g, before.best->swap);
  engine.rebuild(g);
  const ShardResult rebuilt = certify_agent_range(engine, all, UsageCost::Sum);
  const EquilibriumCertificate want = naive::certify_sum_equilibrium(g);
  expect_same_deviation(rebuilt.best, want.witness, "rebuilt");
  EXPECT_EQ(rebuilt.moves, want.moves_checked);
  EXPECT_EQ(rebuilt.fingerprint, graph_fingerprint(g));
}

/// Moves the naive scan of agent v enumerates until it stops at `stop`, or
/// all of them when there is no stop: per incident edge in neighbor order,
/// the deletion check when `deletions`, then one candidate per
/// non-neighbor ≠ v in ascending order.
std::uint64_t hand_count(const Graph& g, Vertex v, bool deletions,
                         const std::optional<Deviation>& stop) {
  std::uint64_t moves = 0;
  for (const Vertex w : g.neighbors(v)) {
    const bool stops_here = stop && stop->swap.remove_w == w;
    if (deletions) ++moves;
    if (stops_here && stop->kind == Deviation::Kind::NonCriticalDelete) return moves;
    for (Vertex w2 = 0; w2 < g.num_vertices(); ++w2) {
      if (w2 == v || g.has_edge(v, w2)) continue;
      ++moves;
      if (stops_here && stop->swap.add_w == w2) return moves;
    }
  }
  return moves;
}

TEST(SwapEngine, MoveCountsMatchOracle) {
  // Every agent's move counter, per scan, against a hand enumeration of the
  // naive scan order, cut where the bncg::naive first deviation stops; and
  // the max + deletions counts summed over agents against the naive
  // certificate. The max scans count a removed edge's candidates up front
  // and take back the ones after a stop-at-first witness, so the first
  // deviation counts are where an off-by-one would show.
  Xoshiro256ss rng(0xC0DE);
  SwapEngine::Scratch scratch;
  BfsWorkspace ws;
  for (int trial = 0; trial < 20; ++trial) {
    const Vertex n = 5 + static_cast<Vertex>(rng.below(10));
    const Graph g = random_connected_gnm(n, n + rng.below(n), rng);
    const std::uint64_t naive_max_moves = naive::certify_max_equilibrium(g).moves_checked;
    for (const WidthPolicy width : {WidthPolicy::Auto, WidthPolicy::ForceU16}) {
      const SwapEngine engine(g, ResourceConfig{.width = width});
      std::uint64_t max_total = 0;
      for (Vertex v = 0; v < n; ++v) {
        std::uint64_t moves = 0;
        (void)engine.best_deviation(v, UsageCost::Sum, scratch, false, &moves);
        EXPECT_EQ(moves, hand_count(g, v, false, std::nullopt)) << "best sum v=" << v;
        moves = 0;
        (void)engine.first_deviation(v, UsageCost::Sum, scratch, false, &moves);
        EXPECT_EQ(moves, hand_count(g, v, false, naive::first_sum_deviation(g, v, ws)))
            << "first sum v=" << v;
        for (const bool deletions : {false, true}) {
          moves = 0;
          (void)engine.best_deviation(v, UsageCost::Max, scratch, deletions, &moves);
          EXPECT_EQ(moves, hand_count(g, v, deletions, std::nullopt))
              << "best max v=" << v << " deletions=" << deletions;
          if (deletions) max_total += moves;
          moves = 0;
          (void)engine.first_deviation(v, UsageCost::Max, scratch, deletions, &moves);
          EXPECT_EQ(moves,
                    hand_count(g, v, deletions, naive::first_max_deviation(g, v, ws, deletions)))
              << "first max v=" << v << " deletions=" << deletions;
        }
      }
      EXPECT_EQ(max_total, naive_max_moves);
    }
  }
}

}  // namespace
}  // namespace bncg
