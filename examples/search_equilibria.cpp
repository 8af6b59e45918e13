// Equilibrium search workflow — the tooling that produced this library's
// Theorem 5 witness after the literal Figure 3 instance was refuted.
//
//  1. quantify how far the literal Figure 3 graph is from equilibrium
//     (sum_unrest), and show the refuting swap;
//  2. anneal from a random diameter-3 graph toward zero unrest — sum-model
//     proposals are evaluated incrementally through the SearchState up to
//     n = 512 (cached per-agent masked matrices; see core/search_state.hpp)
//     and on a rebuilt SwapEngine above it, and the run reports its
//     proposal throughput and acceptance counters;
//  3. certify whatever the search returns, and compare it against the
//     library's canonical 8-vertex witness up to isomorphism;
//  4. exhaustively confirm no smaller witness exists (n ≤ 6 here; n = 7
//     runs in bench_thm5_diameter3).
//
//   $ ./search_equilibria [n] [steps] [seed]
#include <cstdlib>
#include <iostream>

#include "core/equilibrium.hpp"
#include "core/search.hpp"
#include "core/search_state.hpp"
#include "core/swap_engine.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/io.hpp"
#include "graph/isomorphism.hpp"
#include "graph/metrics.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace bncg;
  const Vertex n = argc > 1 ? static_cast<Vertex>(std::atoi(argv[1])) : 8;
  const std::uint64_t steps = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 8000;
  const std::uint64_t seed = argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 2024;

  std::cout << "=== 1. the literal Figure 3 graph, quantified ===\n";
  {
    const Graph fig3 = fig3_diameter3_graph();
    const auto [v, rm, add] = fig3_refuting_swap();
    std::cout << "sum_unrest(fig3) = " << sum_unrest(fig3)
              << " (one unit per d-agent)\nrefuting swap: agent " << v << " replaces edge to "
              << rm << " with edge to " << add << "\n";
  }

  std::cout << "\n=== 2. anneal toward a diameter-3 sum equilibrium (n=" << n << ") ===\n";
  Xoshiro256ss rng(seed);
  AnnealConfig config;
  config.steps = steps;
  config.seed = seed;
  config.cost = UsageCost::Sum;
  AnnealStats stats;
  Timer timer;
  const Graph start = random_connected_gnm(n, 2 * n, rng);
  const char* evaluation = search_state_enabled(start) ? "incremental state"
                           : force_naive_requested()    ? "naive oracle"
                                                        : "engine";
  const auto found = anneal_equilibrium(start, config, &stats);
  const double secs = timer.seconds();
  std::cout << stats.proposals << " proposals in " << secs << " s ("
            << (secs > 0 ? static_cast<double>(stats.proposals) / secs : 0.0) << "/s "
            << evaluation << "): " << stats.filtered << " filtered, " << stats.evaluated
            << " evaluated, " << stats.accepted << " accepted, final unrest "
            << stats.final_unrest << "\n";
  if (!found) {
    std::cout << "no equilibrium found in " << steps
              << " steps — try more steps or another seed\n";
    return 1;
  }
  std::cout << "found: " << to_string(*found) << "\n"
            << "graph6: " << to_graph6(*found) << "\n";

  std::cout << "\n=== 3. certify and compare ===\n";
  const EquilibriumCertificate cert = certify_sum_equilibrium(*found);
  std::cout << "diameter=" << diameter(*found)
            << " sum equilibrium: " << (cert.is_equilibrium ? "CERTIFIED" : "REFUTED") << " ("
            << cert.moves_checked << " swaps checked)\n";
  if (found->num_vertices() == 8) {
    std::cout << "isomorphic to the canonical n=8 witness: "
              << (are_isomorphic(*found, diameter3_sum_equilibrium_n8()) ? "yes" : "no — a new one!")
              << "\n";
  }

  std::cout << "\n=== 4. minimality (exhaustive, n <= 6) ===\n";
  for (const Vertex small_n : {5u, 6u}) {
    const auto witness = exhaustive_diameter3_sum_equilibrium(small_n);
    std::cout << "n=" << small_n << ": "
              << (witness ? "UNEXPECTED witness found" : "no diameter-3 sum equilibrium exists")
              << "\n";
  }
  return cert.is_equilibrium ? 0 : 1;
}
