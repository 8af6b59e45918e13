// Differential suite for the α-game engine path (DESIGN.md §14): over 200+
// seeded instances with randomized ownership, best_deviation_engine must
// return exactly the move best_deviation_naive returns — same Type, same
// (v, w, w2), bit-identical gain doubles (the engine produces the same
// usage integers the BFS oracle sums, and the α arithmetic is written
// char-identically) — across α values straddling every move regime, at both
// SIMD dispatch extremes. The α-threshold machinery gets the same
// treatment: alpha_equilibrium_interval vs its naive twin on lo / hi /
// swap_blocked exactly, plus the contains(α) ⟺ is_greedy_equilibrium(α)
// bridge. Thread parity is certified transitively through the
// classic_game_engine_threads{1,4} CTest entries (naive is
// thread-independent, so engine == naive at both counts pins the engine).
#include "core/classic_game.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bncg {
namespace {

struct LevelGuard {
  SimdLevel saved = simd_active_level();
  ~LevelGuard() { simd_set_level(saved); }
};

/// Instance pool biased toward the regimes where add / delete / swap moves
/// trade off: sparse (adds win), dense (deletes win), and the structured
/// graphs the unit suite exercises. Not all are connected-critical — the
/// α-game tolerates disconnection via kHugeCost — but all are connected so
/// the engine path is exercised.
Graph instance(int trial, Xoshiro256ss& rng) {
  switch (trial % 7) {
    case 0: {
      const Vertex n = 5 + static_cast<Vertex>(rng.below(8));
      const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
      return random_connected_gnm(n, std::min<std::size_t>(max_edges, n + rng.below(n)), rng);
    }
    case 1:
      return random_tree(5 + static_cast<Vertex>(rng.below(8)), rng);
    case 2:
      return star(5 + static_cast<Vertex>(rng.below(6)));
    case 3:
      return complete(4 + static_cast<Vertex>(rng.below(4)));
    case 4:
      return cycle(5 + static_cast<Vertex>(rng.below(8)));
    case 5:
      return path(4 + static_cast<Vertex>(rng.below(8)));
    default:
      return double_star(2 + static_cast<Vertex>(rng.below(3)),
                         2 + static_cast<Vertex>(rng.below(3)));
  }
}

/// Random but legal ownership: each edge assigned to one of its endpoints.
std::vector<Vertex> random_owners(const Graph& g, Xoshiro256ss& rng) {
  std::vector<Vertex> owners;
  owners.reserve(g.num_edges());
  for (const Edge& e : g.edges()) owners.push_back(rng.bernoulli(0.5) ? e.u : e.v);
  return owners;
}

/// α samples spanning the add-dominated, balanced, and delete-dominated
/// regimes (plus an n-scale value where stars are equilibria).
std::vector<double> alpha_samples(const Graph& g) {
  return {0.25, 0.4, 1.0, 2.0, 5.0, static_cast<double>(g.num_vertices())};
}

void expect_same_move(const std::optional<ClassicMove>& got,
                      const std::optional<ClassicMove>& want, const std::string& context) {
  ASSERT_EQ(got.has_value(), want.has_value()) << context;
  if (!want) return;
  EXPECT_EQ(got->type, want->type) << context;
  EXPECT_EQ(got->v, want->v) << context;
  EXPECT_EQ(got->w, want->w) << context;
  EXPECT_EQ(got->w2, want->w2) << context;
  // Bit-identical, not approximately equal: both sides evaluate the same
  // double expressions over the same usage integers.
  EXPECT_EQ(got->gain, want->gain) << context;
}

TEST(ClassicGameEngine, BestDeviationParity) {
  // 2 SIMD extremes × 105 instances × 6 α values × every agent. The public
  // best_deviation and the explicit engine entry point are both compared, so
  // the public entry point cannot drift.
  LevelGuard guard;
  for (const SimdLevel level : {SimdLevel::Scalar, simd_max_level()}) {
    ASSERT_EQ(simd_set_level(level), level);
    Xoshiro256ss rng(0xA1FA);
    for (int trial = 0; trial < 105; ++trial) {
      const Graph g = instance(trial, rng);
      const std::vector<Vertex> owners = random_owners(g, rng);
      for (const double alpha : alpha_samples(g)) {
        const ClassicGame game(g, alpha, owners);
        const SwapEngine engine(g);
        SwapEngine::Scratch scratch;
        BfsWorkspace ws;
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          const std::string ctx = std::string(simd_level_name(level)) + " trial " +
                                  std::to_string(trial) + " alpha=" + std::to_string(alpha) +
                                  " v=" + std::to_string(v);
          const auto want = game.best_deviation_naive(v, ws);
          expect_same_move(game.best_deviation_engine(engine, scratch, v), want, ctx + " engine");
          expect_same_move(game.best_deviation(v), want, ctx + " public");
        }
      }
    }
  }
}

TEST(ClassicGameEngine, AlphaIntervalParity) {
  // Interval endpoints are maxima/minima over the same usage differences the
  // deviation scan sees, so engine vs naive must agree exactly — and the
  // interval must predict is_greedy_equilibrium at every sampled α.
  LevelGuard guard;
  for (const SimdLevel level : {SimdLevel::Scalar, simd_max_level()}) {
    ASSERT_EQ(simd_set_level(level), level);
    Xoshiro256ss rng(0x1D3A);
    for (int trial = 0; trial < 70; ++trial) {
      const Graph g = instance(trial, rng);
      const std::vector<Vertex> owners = random_owners(g, rng);
      const ClassicGame probe(g, 1.0, owners);  // α is irrelevant to the interval
      const AlphaInterval want = probe.alpha_equilibrium_interval_naive();
      const AlphaInterval got = probe.alpha_equilibrium_interval();
      const std::string ctx = std::string(simd_level_name(level)) + " trial " +
                              std::to_string(trial);
      EXPECT_EQ(got.lo, want.lo) << ctx;
      EXPECT_EQ(got.hi, want.hi) << ctx;
      EXPECT_EQ(got.swap_blocked, want.swap_blocked) << ctx;
      for (const double alpha : alpha_samples(g)) {
        const ClassicGame game(g, alpha, owners);
        EXPECT_EQ(want.contains(alpha), game.is_greedy_equilibrium())
            << ctx << " alpha=" << alpha;
      }
    }
  }
}

TEST(ClassicGameEngine, BestResponseDynamicsParity) {
  // Whole-trajectory agreement: running round-robin best response from the
  // same seed state must visit identical move sequences under the engine and
  // the oracle, because each step's chosen move matches. Compare the final
  // graphs, ownership-sensitive social cost, and move/pass counts.
  Xoshiro256ss rng(0xD1CE);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = instance(trial, rng);
    const std::vector<Vertex> owners = random_owners(g, rng);
    for (const double alpha : {0.5, 2.0, 8.0}) {
      ClassicGame routed(g, alpha, owners);
      ClassicGame oracle(g, alpha, owners);
      const auto routed_run = routed.run_best_response(200);
      // Drive the oracle with explicitly naive per-step choices.
      ClassicGame::RunResult oracle_run;
      BfsWorkspace ws;
      for (;;) {
        bool any_move = false;
        for (Vertex v = 0; v < g.num_vertices() && oracle_run.moves < 200; ++v) {
          const auto move = oracle.best_deviation_naive(v, ws);
          if (!move) continue;
          oracle.apply(*move);
          ++oracle_run.moves;
          any_move = true;
        }
        ++oracle_run.passes;
        if (!any_move) {
          oracle_run.converged = true;
          break;
        }
        if (oracle_run.moves >= 200) break;
      }
      const std::string ctx = "trial " + std::to_string(trial) + " alpha=" + std::to_string(alpha);
      EXPECT_EQ(routed_run.converged, oracle_run.converged) << ctx;
      EXPECT_EQ(routed_run.moves, oracle_run.moves) << ctx;
      EXPECT_EQ(routed_run.passes, oracle_run.passes) << ctx;
      EXPECT_EQ(routed.graph().edges(), oracle.graph().edges()) << ctx;
      EXPECT_EQ(routed.social_cost(), oracle.social_cost()) << ctx;
    }
  }
}

}  // namespace
}  // namespace bncg
