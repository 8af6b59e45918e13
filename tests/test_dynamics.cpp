// Unit tests for best-response swap dynamics.
#include "core/dynamics.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/swap.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

DynamicsConfig sum_config() {
  DynamicsConfig config;
  config.cost = UsageCost::Sum;
  config.max_moves = 50'000;
  return config;
}

TEST(Dynamics, StarIsAFixedPoint) {
  const DynamicsResult r = run_dynamics(star(9), sum_config());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.moves, 0u);
  EXPECT_EQ(r.graph, star(9));
}

TEST(Dynamics, PathConvergesToSumEquilibrium) {
  const DynamicsResult r = run_dynamics(path(10), sum_config());
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(is_sum_equilibrium(r.graph));
  EXPECT_GT(r.moves, 0u);
}

TEST(Dynamics, EdgeCountIsInvariant) {
  Xoshiro256ss rng(3);
  const Graph start = random_connected_gnm(20, 30, rng);
  const DynamicsResult r = run_dynamics(start, sum_config());
  EXPECT_EQ(r.graph.num_edges(), start.num_edges());
  EXPECT_NO_THROW(r.graph.check_invariants());
}

TEST(Dynamics, TreeDynamicsReachDiameterTwo) {
  // Theorem 1 in action: trees under sum dynamics can only stop at stars.
  Xoshiro256ss rng(4);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph start = random_tree(15, rng);
    const DynamicsResult r = run_dynamics(start, sum_config());
    ASSERT_TRUE(r.converged);
    EXPECT_TRUE(is_tree(r.graph));  // swaps preserve edge count & connectivity
    EXPECT_LE(diameter(r.graph), 2u);
  }
}

TEST(Dynamics, FinalGraphStaysConnected) {
  // Improving swaps never disconnect (disconnection costs +∞).
  Xoshiro256ss rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph start = random_connected_gnm(18, 22, rng);
    const DynamicsResult r = run_dynamics(start, sum_config());
    EXPECT_TRUE(is_connected(r.graph));
  }
}

/// Full scheduler × policy × cost-model matrix as a parameterized suite:
/// every configuration must converge to a state its own certifier accepts,
/// preserve the edge budget, and keep the graph connected.
struct DynamicsMatrixCase {
  Scheduler scheduler;
  MovePolicy policy;
  UsageCost cost;
};

class DynamicsMatrix : public ::testing::TestWithParam<DynamicsMatrixCase> {};

TEST_P(DynamicsMatrix, ConvergesToSelfCertifiedEquilibrium) {
  const DynamicsMatrixCase& c = GetParam();
  Xoshiro256ss rng(6);
  const Graph start = random_connected_gnm(14, 20, rng);
  DynamicsConfig config;
  config.scheduler = c.scheduler;
  config.policy = c.policy;
  config.cost = c.cost;
  config.allow_neutral_deletions = c.cost == UsageCost::Max;
  config.max_moves = 50'000;
  const DynamicsResult r = run_dynamics(start, config);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(is_connected(r.graph));
  EXPECT_LE(r.graph.num_edges(), start.num_edges());  // = for sum; ≤ with deletions
  if (c.cost == UsageCost::Sum) {
    EXPECT_EQ(r.graph.num_edges(), start.num_edges());
    EXPECT_TRUE(is_sum_equilibrium(r.graph));
  } else {
    EXPECT_TRUE(is_max_equilibrium(r.graph));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, DynamicsMatrix,
    ::testing::Values(
        DynamicsMatrixCase{Scheduler::RoundRobin, MovePolicy::FirstImprovement, UsageCost::Sum},
        DynamicsMatrixCase{Scheduler::RoundRobin, MovePolicy::BestImprovement, UsageCost::Sum},
        DynamicsMatrixCase{Scheduler::RandomOrder, MovePolicy::FirstImprovement, UsageCost::Sum},
        DynamicsMatrixCase{Scheduler::RandomOrder, MovePolicy::BestImprovement, UsageCost::Sum},
        DynamicsMatrixCase{Scheduler::GreedyGlobal, MovePolicy::BestImprovement, UsageCost::Sum},
        DynamicsMatrixCase{Scheduler::RoundRobin, MovePolicy::FirstImprovement, UsageCost::Max},
        DynamicsMatrixCase{Scheduler::RoundRobin, MovePolicy::BestImprovement, UsageCost::Max},
        DynamicsMatrixCase{Scheduler::RandomOrder, MovePolicy::FirstImprovement, UsageCost::Max},
        DynamicsMatrixCase{Scheduler::GreedyGlobal, MovePolicy::BestImprovement,
                           UsageCost::Max}));

TEST(Dynamics, RandomOrderIsDeterministicGivenSeed) {
  Xoshiro256ss rng(8);
  const Graph start = random_connected_gnm(16, 22, rng);
  DynamicsConfig config = sum_config();
  config.scheduler = Scheduler::RandomOrder;
  config.seed = 12345;
  const DynamicsResult r1 = run_dynamics(start, config);
  const DynamicsResult r2 = run_dynamics(start, config);
  EXPECT_EQ(r1.graph, r2.graph);
  EXPECT_EQ(r1.moves, r2.moves);
}

TEST(Dynamics, TraceRecordsMonotoneMoveIndices) {
  DynamicsConfig config = sum_config();
  config.record_trace = true;
  const DynamicsResult r = run_dynamics(path(9), config);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.front().move, 0u);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_EQ(r.trace[i].move, r.trace[i - 1].move + 1);
  }
  EXPECT_EQ(r.trace.back().move, r.moves);
  // Final snapshot matches the final graph.
  EXPECT_EQ(r.trace.back().diameter, diameter(r.graph));
  EXPECT_EQ(r.trace.back().social_cost, social_cost(r.graph, UsageCost::Sum));
}

TEST(Dynamics, MoveBudgetIsRespected) {
  DynamicsConfig config = sum_config();
  config.max_moves = 2;
  const DynamicsResult r = run_dynamics(path(30), config);
  EXPECT_LE(r.moves, 2u);
  EXPECT_FALSE(r.converged);
}

TEST(Dynamics, MaxModelWithNeutralDeletionsPrunesChords) {
  // C_8 plus chord 0–2 (non-critical): max dynamics with neutral deletions
  // should remove redundant edges or otherwise reach a max equilibrium.
  Graph start = cycle(8);
  start.add_edge(0, 2);
  DynamicsConfig config;
  config.cost = UsageCost::Max;
  config.allow_neutral_deletions = true;
  config.max_moves = 10'000;
  const DynamicsResult r = run_dynamics(start, config);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(is_max_equilibrium(r.graph));
}

TEST(Dynamics, DisconnectedStartRejected) {
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_THROW((void)run_dynamics(g, sum_config()), std::invalid_argument);
}

TEST(Dynamics, SocialCostModels) {
  const Graph g = star(6);
  // Sum: center 5, each leaf 1 + 2·4 = 9 → 5 + 5·9 = 50.
  EXPECT_EQ(social_cost(g, UsageCost::Sum), 50u);
  // Max: center ecc 1, leaves ecc 2 → 1 + 5·2 = 11.
  EXPECT_EQ(social_cost(g, UsageCost::Max), 11u);
  Graph disc(3);
  disc.add_edge(0, 1);
  EXPECT_EQ(social_cost(disc, UsageCost::Sum), kInfCost);
}

TEST(Dynamics, RevisitDetectionOffByDefault) {
  const DynamicsResult r = run_dynamics(path(8), sum_config());
  EXPECT_FALSE(r.revisited);
  EXPECT_EQ(r.first_revisit_move, 0u);
}

TEST(Dynamics, NoRevisitsObservedOnConvergentRuns) {
  // No potential function is known for either usage cost; on every
  // convergent run we have observed, states never recur. This documents
  // that observation (a revisit here would be a publishable example).
  Xoshiro256ss rng(55);
  for (int trial = 0; trial < 5; ++trial) {
    DynamicsConfig config = sum_config();
    config.detect_revisits = true;
    config.scheduler = Scheduler::RandomOrder;
    config.seed = rng();
    const DynamicsResult r = run_dynamics(random_connected_gnm(14, 20, rng), config);
    EXPECT_TRUE(r.converged);
    EXPECT_FALSE(r.revisited);
  }
}

TEST(Dynamics, PassesAreCounted) {
  const DynamicsResult r = run_dynamics(path(8), sum_config());
  EXPECT_GE(r.passes, 2u);  // at least one active pass plus the quiet one
}

/// The dynamics loop replayed on the bncg::naive oracles alone: the same
/// schedulers, policies, move budget and pass count as run_dynamics, with
/// every agent scan one BFS per candidate move.
struct NaiveReplay {
  Graph graph{0};
  std::uint64_t moves = 0;
  std::uint64_t passes = 0;
  bool converged = false;
};

NaiveReplay naive_replay(Graph g, const DynamicsConfig& config) {
  const Vertex n = g.num_vertices();
  const bool sum = config.cost == UsageCost::Sum;
  const bool first = config.policy == MovePolicy::FirstImprovement;
  const bool deletions = !sum && config.allow_neutral_deletions;
  BfsWorkspace ws;
  const auto deviation = [&](Vertex v) -> std::optional<Deviation> {
    if (sum) {
      return first ? naive::first_sum_deviation(g, v, ws) : naive::best_sum_deviation(g, v, ws);
    }
    if (first) return naive::first_max_deviation(g, v, ws, deletions);
    auto best = naive::best_max_deviation(g, v, ws);
    if (!best && deletions) best = naive::first_max_deviation(g, v, ws, true);
    return best;
  };

  NaiveReplay r;
  Xoshiro256ss rng(config.seed);
  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), Vertex{0});
  bool out_of_budget = false;
  const auto take = [&](const Deviation& d) {
    if (d.kind == Deviation::Kind::NonCriticalDelete) {
      g.remove_edge(d.swap.v, d.swap.remove_w);
    } else {
      apply_swap(g, d.swap);
    }
    if (++r.moves >= config.max_moves) out_of_budget = true;
  };
  for (;;) {
    bool any_move = false;
    if (config.scheduler == Scheduler::GreedyGlobal) {
      std::optional<Deviation> best;
      std::uint64_t best_gain = 0;
      for (Vertex v = 0; v < n; ++v) {
        const auto d = deviation(v);
        if (!d) continue;
        const std::uint64_t gain =
            d->cost_before == kInfCost ? kInfCost : d->cost_before - d->cost_after;
        if (!best || gain > best_gain) {
          best = d;
          best_gain = gain;
        }
      }
      if (best) {
        any_move = true;
        take(*best);
      }
    } else {
      if (config.scheduler == Scheduler::RandomOrder) rng.shuffle(order);
      for (const Vertex v : order) {
        if (out_of_budget) break;
        const auto d = deviation(v);
        if (!d) continue;
        any_move = true;
        take(*d);
      }
    }
    ++r.passes;
    if (!any_move || out_of_budget) break;
  }
  r.converged = !out_of_budget;
  if (r.converged) {
    if (sum) {
      r.converged = naive::certify_sum_equilibrium(g).is_equilibrium;
    } else if (deletions) {
      r.converged = naive::certify_max_equilibrium(g).is_equilibrium;
    } else {
      for (Vertex v = 0; v < n && r.converged; ++v) {
        r.converged = !naive::first_max_deviation(g, v, ws, false);
      }
    }
  }
  r.graph = std::move(g);
  return r;
}

TEST(Dynamics, TrajectoriesMatchNaiveReplay) {
  // run_dynamics scans through the SwapEngine; every scheduler × policy ×
  // game must walk the naive replay's trajectory move for move. The budget
  // cuts some runs short, so both exits are compared.
  Xoshiro256ss rng(0xD1A);
  std::vector<Graph> starts;
  starts.push_back(random_connected_gnm(16, 32, rng));
  starts.push_back(random_connected_gnm(40, 80, rng));
  starts.push_back(random_tree(24, rng));
  int converged_runs = 0;
  int cut_runs = 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    for (const Scheduler scheduler :
         {Scheduler::RoundRobin, Scheduler::RandomOrder, Scheduler::GreedyGlobal}) {
      for (const MovePolicy policy :
           {MovePolicy::FirstImprovement, MovePolicy::BestImprovement}) {
        for (int game = 0; game < 3; ++game) {
          DynamicsConfig config;
          config.cost = game == 0 ? UsageCost::Sum : UsageCost::Max;
          config.allow_neutral_deletions = game == 2;
          config.scheduler = scheduler;
          config.policy = policy;
          config.max_moves = 60;
          config.seed = 0x5EED + i;
          const std::string ctx = "start " + std::to_string(i) + " scheduler " +
                                  std::to_string(static_cast<int>(scheduler)) + " policy " +
                                  std::to_string(static_cast<int>(policy)) + " game " +
                                  std::to_string(game);
          const DynamicsResult got = run_dynamics(starts[i], config);
          const NaiveReplay want = naive_replay(starts[i], config);
          EXPECT_EQ(got.moves, want.moves) << ctx;
          EXPECT_EQ(got.passes, want.passes) << ctx;
          EXPECT_EQ(got.converged, want.converged) << ctx;
          EXPECT_EQ(got.graph, want.graph) << ctx;
          (want.converged ? converged_runs : cut_runs) += 1;
        }
      }
    }
  }
  EXPECT_GT(converged_runs, 0);
  EXPECT_GT(cut_runs, 0);
}

}  // namespace
}  // namespace bncg
