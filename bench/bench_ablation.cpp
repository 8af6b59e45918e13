// Ablation study of the dynamics engine's design choices (DESIGN.md §3.4):
//
//  (a) scheduler (round-robin / random order / greedy-global) × policy
//      (first- vs best-improvement): moves-to-convergence and equilibrium
//      quality (diameter, cost ratio) on a fixed instance set;
//  (b) the specialized O(n) tree engine vs the generic BFS engine on trees:
//      same fixed points, orders-of-magnitude throughput gap;
//  (c) max-model neutral deletions on vs off: effect on reaching genuine
//      max equilibria (the deletion clause) vs mere swap-stability.
#include <iostream>

#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/poa.hpp"
#include "core/swap_engine.hpp"
#include "core/tree_game.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace bncg;

int main() {
  std::cout << "Ablation: dynamics engine design choices\n";
  bool all_ok = true;

  print_banner(std::cout, "(a) scheduler x policy (sum model, gnm(48,96), 3 seeds each)");
  {
    struct Cell {
      Scheduler scheduler;
      MovePolicy policy;
      const char* name;
    };
    const Cell cells[] = {
        {Scheduler::RoundRobin, MovePolicy::FirstImprovement, "round-robin/first"},
        {Scheduler::RoundRobin, MovePolicy::BestImprovement, "round-robin/best"},
        {Scheduler::RandomOrder, MovePolicy::FirstImprovement, "random/first"},
        {Scheduler::RandomOrder, MovePolicy::BestImprovement, "random/best"},
        {Scheduler::GreedyGlobal, MovePolicy::BestImprovement, "greedy-global/best"},
    };
    Table t({"config", "converged", "avg moves", "avg passes", "worst diam", "avg cost ratio",
             "avg ms", "verdict"});
    for (const auto& cell : cells) {
      Xoshiro256ss rng(0xAB1A);  // same instances for every cell
      int converged = 0;
      std::uint64_t moves = 0, passes = 0;
      Vertex worst_diam = 0;
      double ratio = 0.0, ms = 0.0;
      const int seeds = 3;
      for (int seed = 0; seed < seeds; ++seed) {
        const Graph start = random_connected_gnm(48, 96, rng);
        DynamicsConfig config;
        config.scheduler = cell.scheduler;
        config.policy = cell.policy;
        config.max_moves = 400'000;
        config.seed = 1000 + seed;
        Timer timer;
        const DynamicsResult r = run_dynamics(start, config);
        ms += timer.millis();
        converged += r.converged;
        moves += r.moves;
        passes += r.passes;
        if (r.converged) {
          worst_diam = std::max(worst_diam, diameter(r.graph));
          ratio += social_cost_ratio(r.graph, UsageCost::Sum);
        }
      }
      const bool ok = converged == seeds;
      all_ok = all_ok && ok;
      t.add_row({cell.name, fmt(converged) + "/" + fmt(seeds),
                 fmt(static_cast<double>(moves) / seeds, 1),
                 fmt(static_cast<double>(passes) / seeds, 1), fmt(worst_diam),
                 fmt(ratio / std::max(converged, 1), 3), fmt(ms / seeds, 1), verdict(ok)});
    }
    t.print(std::cout);
    std::cout << "All configurations land on certified equilibria of the same quality;\n"
                 "the scheduler mainly shifts moves-vs-passes, a robustness result for\n"
                 "the paper's 'any improving swap' model.\n";
  }

  print_banner(std::cout, "(b) specialized tree engine vs generic BFS engine (sum model)");
  {
    Table t({"n", "generic ms", "tree-engine ms", "speedup", "both reach stars", "verdict"});
    for (const Vertex n : {32u, 64u, 128u, 256u}) {
      Xoshiro256ss rng(0xAB1B ^ n);
      const Graph start = random_tree(n, rng);
      Timer generic_timer;
      DynamicsConfig config;
      config.max_moves = 1'000'000;
      const DynamicsResult generic = run_dynamics(start, config);
      const double generic_ms = generic_timer.millis();
      Timer tree_timer;
      const TreeDynamicsResult fast = run_tree_dynamics(start);
      const double tree_ms = tree_timer.millis();
      const bool stars = generic.converged && fast.converged &&
                         diameter(generic.graph) <= 2 && diameter(fast.tree) <= 2;
      all_ok = all_ok && stars;
      t.add_row({fmt(n), fmt(generic_ms, 2), fmt(tree_ms, 2),
                 fmt(generic_ms / std::max(tree_ms, 1e-6), 1) + "x", stars ? "yes" : "no",
                 verdict(stars)});
    }
    t.print(std::cout);
  }

  print_banner(std::cout, "(c) max model: neutral deletions on vs off (C_10 + 2 chords)");
  {
    Graph start = cycle(10);
    start.add_edge(0, 2);
    start.add_edge(5, 7);
    Table t({"neutral deletions", "converged", "final m", "swap-stable", "max equilibrium",
             "verdict"});
    for (const bool neutral : {false, true}) {
      DynamicsConfig config;
      config.cost = UsageCost::Max;
      config.allow_neutral_deletions = neutral;
      config.max_moves = 50'000;
      const DynamicsResult r = run_dynamics(start, config);
      // Swap-stability holds either way; the full max-equilibrium deletion
      // clause is only reachable when neutral deletions may prune chords.
      bool swap_stable = true;
      SwapEngine engine(r.graph);
      for (Vertex v = 0; v < r.graph.num_vertices(); ++v) {
        swap_stable = swap_stable && !engine.first_deviation(v, UsageCost::Max);
      }
      const bool full_eq = is_max_equilibrium(r.graph);
      const bool ok = r.converged ? (neutral ? full_eq : swap_stable) : false;
      all_ok = all_ok && ok;
      t.add_row({neutral ? "on" : "off", r.converged ? "yes" : "no", fmt(r.graph.num_edges()),
                 swap_stable ? "yes" : "no", full_eq ? "yes" : "no", verdict(ok)});
    }
    t.print(std::cout);
    std::cout << "Without the deletion clause, dynamics stop at swap-stable states that\n"
                 "still carry removable chords; the clause is what drives toward the\n"
                 "deletion-critical equilibria of Section 4.\n";
  }

  std::cout << "\nAblation overall: " << verdict(all_ok) << "\n";
  return all_ok ? 0 : 1;
}
