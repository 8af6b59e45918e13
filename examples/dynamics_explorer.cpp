// Dynamics explorer: watch best-response swap dynamics reshape a network.
//
// Runs the configured dynamics with full trace recording and prints the
// social cost / diameter trajectory — the "small world emerges from selfish
// swaps" phenomenon the paper's introduction motivates. Agent scans run on
// the SwapEngine, re-snapshotted after every move.
//
//   $ ./dynamics_explorer [family: tree|cycle|sparse|ba] [n] [sum|max] [seed]
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/dynamics.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "graph/metrics.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bncg;
  const std::string family = argc > 1 ? argv[1] : "cycle";
  const Vertex n = argc > 2 ? static_cast<Vertex>(std::atoi(argv[2])) : 24;
  const std::string model = argc > 3 ? argv[3] : "sum";
  const std::uint64_t seed = argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 7;

  Xoshiro256ss rng(seed);
  Graph start(0);
  if (family == "tree") {
    start = random_tree(n, rng);
  } else if (family == "cycle") {
    start = cycle(n);
  } else if (family == "sparse") {
    start = random_connected_gnm(n, n + n / 4, rng);
  } else if (family == "ba") {
    start = barabasi_albert(n, 2, rng);
  } else {
    std::cerr << "unknown family '" << family << "' (tree|cycle|sparse|ba)\n";
    return 2;
  }

  DynamicsConfig config;
  config.cost = model == "max" ? UsageCost::Max : UsageCost::Sum;
  config.allow_neutral_deletions = config.cost == UsageCost::Max;
  config.record_trace = true;
  config.max_moves = 200'000;
  config.seed = seed;

  std::cout << "family=" << family << " n=" << n << " m=" << start.num_edges()
            << " model=" << model << "\n\n";
  const DynamicsResult r = run_dynamics(start, config);

  Table t({"move", "social_cost", "diameter"});
  // Print at most ~20 evenly spaced trace rows.
  const std::size_t stride = std::max<std::size_t>(1, r.trace.size() / 20);
  for (std::size_t i = 0; i < r.trace.size(); i += stride) {
    t.add_row({fmt(r.trace[i].move), fmt(r.trace[i].social_cost), fmt(r.trace[i].diameter)});
  }
  if (!r.trace.empty() && (r.trace.size() - 1) % stride != 0) {
    const auto& last = r.trace.back();
    t.add_row({fmt(last.move), fmt(last.social_cost), fmt(last.diameter)});
  }
  t.print(std::cout);

  std::cout << "\n" << r.moves << " moves, " << r.passes << " passes, converged="
            << (r.converged ? "yes" : "no") << ", final diameter=" << diameter(r.graph)
            << "\n";
  return 0;
}
