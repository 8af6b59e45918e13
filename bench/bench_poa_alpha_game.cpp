// Reproduces the paper's transfer principle (§1): results about swap
// equilibria apply to the classic α-game for *all* values of α at once,
// because the swap move is α-independent; and the price of anarchy is within
// a constant factor of equilibrium diameter [7].
//
// Protocol:
//  (a) take certified sum swap equilibria of the basic game and verify that
//      no agent has an improving *swap* in the α-game at any α across six
//      orders of magnitude — the α-free transfer, executed;
//  (b) run α-game greedy best-response across an α sweep and report
//      equilibrium social cost / OPT (PoA estimate) next to the equilibrium
//      diameter — the [7] constant-factor relation as a measured table;
//  (c) report the basic game's edge-budget cost ratio on dynamics-reached
//      equilibria (the α-free analogue).
#include <cmath>
#include <iostream>

#include "core/classic_game.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/poa.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "util/table.hpp"

using namespace bncg;

int main() {
  std::cout << "Transfer principle + price of anarchy [SPAA'10 §1, relation from DHMZ'07]\n";
  Xoshiro256ss rng(0xA0A0);
  bool all_ok = true;

  print_banner(std::cout, "(a) swap-stability of basic-game equilibria transfers to every alpha");
  {
    struct Named {
      std::string name;
      Graph g;
    };
    std::vector<Named> equilibria;
    equilibria.push_back({"star(12)", star(12)});
    equilibria.push_back({"diam3 witness (n=8)", diameter3_sum_equilibrium_n8()});
    {
      DynamicsConfig config;
      config.max_moves = 300'000;
      const DynamicsResult r = run_dynamics(random_connected_gnm(20, 30, rng), config);
      if (r.converged) equilibria.push_back({"dynamics(n=20,m=30)", r.graph});
    }
    const double alphas[] = {0.01, 0.1, 1.0, 2.0, 10.0, 100.0, 10000.0};
    Table t({"equilibrium", "alphas tested", "improving swaps found", "verdict"});
    for (const auto& [name, g] : equilibria) {
      int swaps_found = 0;
      for (const double alpha : alphas) {
        ClassicGame game(g, alpha);
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          const auto move = game.best_deviation(v);
          if (move && move->type == ClassicMove::Type::Swap) ++swaps_found;
        }
      }
      all_ok = all_ok && swaps_found == 0;
      t.add_row({name, fmt(static_cast<long long>(std::size(alphas))), fmt(swaps_found),
                 verdict(swaps_found == 0)});
    }
    t.print(std::cout);
  }

  print_banner(std::cout, "(b) alpha-game greedy equilibria: PoA estimate vs diameter, per alpha");
  {
    Table t({"alpha", "n", "converged", "eq_diam", "social/OPT", "4*(diam+1)", "verdict"});
    const Vertex n = 16;
    for (const double alpha : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0}) {
      ClassicGame game(random_connected_gnm(n, 24, rng), alpha);
      const auto run = game.run_best_response(150'000);
      const Vertex d = diameter(game.graph());
      const double poa = game.social_cost() / optimal_social_cost(n, alpha);
      // The [7]-style relation: PoA within a constant factor of diameter.
      const bool ok = poa >= 1.0 - 1e-9 && poa <= 4.0 * (static_cast<double>(d) + 1.0);
      all_ok = all_ok && ok;
      t.add_row({fmt(alpha, 2), fmt(n), run.converged ? "yes" : "no", fmt(d), fmt(poa, 3),
                 fmt(4.0 * (d + 1.0), 1), verdict(ok)});
    }
    t.print(std::cout);
    std::cout << "Same instance family, alpha spanning 0.5 .. 64: the swap-equilibrium\n"
                 "analysis needed no per-alpha case split — the paper's point.\n";
  }

  print_banner(std::cout, "(c) basic game: edge-budget cost ratio of dynamics equilibria");
  {
    Table t({"n", "m", "eq_diam", "sum cost / LB(n,m)", "verdict"});
    for (const Vertex n : {16u, 32u, 64u}) {
      const std::size_t m = 2 * n;
      DynamicsConfig config;
      config.max_moves = 400'000;
      config.seed = rng();
      const DynamicsResult r = run_dynamics(random_connected_gnm(n, m, rng), config);
      if (!r.converged) {
        all_ok = false;
        t.add_row({fmt(n), fmt(m), "-", "did not converge", verdict(false)});
        continue;
      }
      const double ratio = social_cost_ratio(r.graph, UsageCost::Sum);
      const Vertex d = diameter(r.graph);
      const bool ok = ratio >= 1.0 - 1e-12 && ratio <= 2.0;
      all_ok = all_ok && ok;
      t.add_row({fmt(n), fmt(m), fmt(d), fmt(ratio, 4), verdict(ok)});
    }
    t.print(std::cout);
  }

  std::cout << "\nTransfer/PoA overall: " << verdict(all_ok) << "\n";
  return all_ok ? 0 : 1;
}
