// Annealing throughput and best-response dynamics timings, emitted as
// machine-readable JSON (BENCH_search.json at the repo root; regenerate with
// bench/run_bench.sh).
//
// For each (n, model) the program replays the SAME annealing schedule — same
// start graph, same seed, same proposal sequence — in two legs: at the
// auto-selected distance width (u8 on these small-diameter instances) and
// with the width forced to u16. Each leg runs three times and reports its
// best time (`incremental_seconds` is the auto-width leg whichever
// evaluator ran; the name predates the engine evaluator), and every run
// must walk the identical trajectory — same counters, same final graph — so
// `width_speedup` (u16 over auto) is a pure storage-width ratio. Each row records which evaluator anneal picked
// (`search_state`: the incremental state of core/search_state.hpp, sum
// model at n <= 512; `engine`: one SwapEngine rebuilt per proposal, see
// core/search.hpp), the selected width, how many u8 -> u16 cap promotions
// the run crossed (0 on these instances), and the fingerprint of the graph
// the run ended on, so two commits' rows show whether they walked the same
// trajectory.
//
// The `dynamics` section times run_dynamics (best-response swap dynamics,
// core/dynamics.hpp) on G(n, 2n), seed 0xD1A ^ n, max_moves 4000, best of
// three runs, in four configurations: sum first-improvement round-robin and
// max+deletions best-improvement round-robin at n = 256 and 512, and sum
// and max+deletions best-improvement GreedyGlobal at n = 128. Each row
// records the trajectory's moves, passes, verdict and final-graph
// fingerprint, so two commits' rows show whether they walked the same
// trajectory. Rows with n > max_n are skipped.
//
// Usage: bench_search_json [output.json] [max_n]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_json_meta.hpp"
#include "core/search.hpp"
#include "core/search_state.hpp"
#include "gen/random.hpp"
#include "core/dynamics.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace bncg;
using Clock = std::chrono::steady_clock;

struct Row {
  Vertex n = 0;
  std::string model;
  std::string evaluator;  // search_state or engine
  std::uint64_t proposals = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t accepted = 0;
  std::uint64_t graph_fingerprint = 0;  // of the graph the run ended on
  std::string width;  // auto-selected width
  std::uint64_t width_promotions = 0;
  double incremental_seconds = 0.0;  // auto width (headline), best of three
  double u16_seconds = 0.0;          // forced-u16 leg, best of three

  [[nodiscard]] double incremental_proposals_per_sec() const {
    return static_cast<double>(proposals) / incremental_seconds;
  }
  [[nodiscard]] double width_speedup() const { return u16_seconds / incremental_seconds; }
};

template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Row measure(Vertex n, UsageCost model, std::uint64_t steps) {
  Xoshiro256ss rng(0x5EA2 ^ n);
  const Graph start = random_connected_gnm(n, 2 * static_cast<std::size_t>(n), rng);

  AnnealConfig config;
  config.cost = model;
  config.steps = steps;
  config.seed = 0xBE7C0 + n;
  // Anneal within the start graph's diameter class: proposals that keep the
  // diameter are plentiful, so the run exercises the evaluation path instead
  // of the rejection filter.
  config.target_diameter = diameter(start);

  Row row;
  row.n = n;
  row.model = model == UsageCost::Sum ? "sum" : "max";
  row.evaluator =
      model == UsageCost::Sum && search_state_enabled(start) ? "search_state" : "engine";

  // Best of three runs per leg; every run of both legs must walk the one
  // trajectory of the first.
  std::optional<AnnealStats> first;
  const auto leg = [&](WidthPolicy width) {
    config.resources.width = width;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      AnnealStats st;
      const double seconds = time_seconds([&] { (void)anneal_equilibrium(start, config, &st); });
      best = rep == 0 ? seconds : std::min(best, seconds);
      if (!first) first = st;
      if (st.proposals != first->proposals || st.filtered != first->filtered ||
          st.evaluated != first->evaluated || st.accepted != first->accepted ||
          st.final_unrest != first->final_unrest ||
          st.final_fingerprint != first->final_fingerprint) {
        std::cerr << "FATAL: anneal trajectory mismatch at n=" << n << " model=" << row.model
                  << "\n";
        std::exit(1);
      }
      if (width == WidthPolicy::Auto) {
        row.width = dist_width_name(st.dist_width);
        row.width_promotions = st.width_promotions;
      }
    }
    return best;
  };
  row.incremental_seconds = leg(WidthPolicy::Auto);
  row.u16_seconds = leg(WidthPolicy::ForceU16);

  row.proposals = first->proposals;
  row.evaluated = first->evaluated;
  row.accepted = first->accepted;
  row.graph_fingerprint = first->final_fingerprint;
  return row;
}

struct DynamicsRow {
  std::string config;
  Vertex n = 0;
  double seconds = 0.0;  // best of three runs
  std::uint64_t moves = 0;
  std::uint64_t passes = 0;
  bool converged = false;
  std::uint64_t graph_fingerprint = 0;  // of the final graph
};

DynamicsRow measure_dynamics(const std::string& name, Vertex n, const DynamicsConfig& config) {
  Xoshiro256ss rng(0xD1A ^ n);
  const Graph start = random_connected_gnm(n, 2 * static_cast<std::size_t>(n), rng);
  DynamicsRow row;
  row.config = name;
  row.n = n;
  for (int rep = 0; rep < 3; ++rep) {
    DynamicsResult result;
    const double seconds = time_seconds([&] { result = run_dynamics(start, config); });
    const std::uint64_t fingerprint = graph_fingerprint(result.graph);
    if (rep > 0 && (result.moves != row.moves || result.passes != row.passes ||
                    result.converged != row.converged || fingerprint != row.graph_fingerprint)) {
      std::cerr << "FATAL: dynamics trajectory differs between runs: " << name << " n=" << n
                << "\n";
      std::exit(1);
    }
    row.seconds = rep == 0 ? seconds : std::min(row.seconds, seconds);
    row.moves = result.moves;
    row.passes = result.passes;
    row.converged = result.converged;
    row.graph_fingerprint = fingerprint;
  }
  return row;
}

std::vector<DynamicsRow> dynamics_rows(Vertex max_n) {
  const auto config = [](UsageCost cost, MovePolicy policy, Scheduler scheduler) {
    DynamicsConfig c;
    c.cost = cost;
    c.allow_neutral_deletions = cost == UsageCost::Max;
    c.policy = policy;
    c.scheduler = scheduler;
    c.max_moves = 4000;
    return c;
  };
  struct Spec {
    std::string name;
    Vertex n;
    DynamicsConfig config;
  };
  const DynamicsConfig sum_first_rr =
      config(UsageCost::Sum, MovePolicy::FirstImprovement, Scheduler::RoundRobin);
  const DynamicsConfig maxdel_best_rr =
      config(UsageCost::Max, MovePolicy::BestImprovement, Scheduler::RoundRobin);
  const std::vector<Spec> specs = {
      {"sum_first_round_robin", 256, sum_first_rr},
      {"sum_first_round_robin", 512, sum_first_rr},
      {"maxdel_best_round_robin", 256, maxdel_best_rr},
      {"maxdel_best_round_robin", 512, maxdel_best_rr},
      {"sum_best_greedy", 128,
       config(UsageCost::Sum, MovePolicy::BestImprovement, Scheduler::GreedyGlobal)},
      {"maxdel_best_greedy", 128,
       config(UsageCost::Max, MovePolicy::BestImprovement, Scheduler::GreedyGlobal)},
  };
  std::vector<DynamicsRow> rows;
  for (const Spec& spec : specs) {
    if (spec.n > max_n) continue;
    const DynamicsRow row = measure_dynamics(spec.name, spec.n, spec.config);
    std::cout << "dynamics " << row.config << " n=" << row.n << " seconds=" << row.seconds
              << " moves=" << row.moves << " passes=" << row.passes
              << " converged=" << row.converged << " graph=" << row.graph_fingerprint << "\n";
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_search.json";
  Vertex max_n = 512;
  if (argc > 2) {
    try {
      max_n = static_cast<Vertex>(std::stoul(argv[2]));
    } catch (const std::exception&) {
      std::cerr << "usage: bench_search_json [output.json] [max_n]\n";
      return 2;
    }
  }

  std::vector<Row> rows;
  for (const Vertex n : {Vertex{64}, Vertex{256}}) {
    if (n > max_n) continue;
    // Budgets sized so the one-time SearchState construction amortizes
    // realistically at a bench runtime of seconds.
    const std::uint64_t steps = n <= 64 ? 1200 : 300;
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const Row row = measure(n, model, steps);
      std::cout << "n=" << row.n << " model=" << row.model << " evaluator=" << row.evaluator
                << " proposals=" << row.proposals << " evaluated=" << row.evaluated
                << " accepted=" << row.accepted << " graph=" << std::hex << row.graph_fingerprint
                << std::dec << " width=" << row.width << " incremental=" << row.incremental_seconds
                << "s u16=" << row.u16_seconds << "s width_speedup=" << row.width_speedup()
                << "x\n";
      rows.push_back(row);
    }
  }

  const std::vector<DynamicsRow> dynamics = dynamics_rows(max_n);

  std::ofstream out(out_path);
  out << "{\n";
  bncg_bench::write_json_meta(out);
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"n\": " << r.n << ", \"model\": \"" << r.model << "\""
        << ", \"evaluator\": \"" << r.evaluator << "\""
        << ", \"proposals\": " << r.proposals << ", \"evaluated\": " << r.evaluated
        << ", \"accepted\": " << r.accepted << ", \"graph_fingerprint\": \"" << std::hex
        << r.graph_fingerprint << std::dec << "\""
        << ", \"width\": \"" << r.width << "\""
        << ", \"width_promotions\": " << r.width_promotions
        << ", \"incremental_seconds\": " << r.incremental_seconds
        << ", \"u16_seconds\": " << r.u16_seconds
        << ", \"width_speedup\": " << r.width_speedup()
        << ", \"incremental_proposals_per_sec\": " << r.incremental_proposals_per_sec() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"dynamics\": [\n";
  for (std::size_t i = 0; i < dynamics.size(); ++i) {
    const DynamicsRow& r = dynamics[i];
    out << "    {\"config\": \"" << r.config << "\", \"n\": " << r.n
        << ", \"seconds\": " << r.seconds << ", \"moves\": " << r.moves
        << ", \"passes\": " << r.passes << ", \"converged\": " << (r.converged ? "true" : "false")
        << ", \"graph_fingerprint\": \"" << std::hex << r.graph_fingerprint << std::dec << "\"}"
        << (i + 1 < dynamics.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
