#include "core/search.hpp"

#include <cmath>

#include "core/certify_sharded.hpp"
#include "core/equilibrium.hpp"
#include "core/swap_engine.hpp"
#include "graph/bfs.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "util/thread_pool.hpp"

namespace bncg {

namespace {

/// Unrest contribution of one agent's best deviation: the improvement when
/// there is one (≥ 1 for improving swaps), and a floor of 1 for violations
/// that improve nothing (the max model's cost-neutral deletions) — so every
/// certifier violation is visible in the potential.
std::uint64_t deviation_unrest(const std::optional<Deviation>& dev) {
  if (!dev) return 0;
  const std::uint64_t gain =
      dev->cost_before > dev->cost_after ? dev->cost_before - dev->cost_after : 0;
  return std::max<std::uint64_t>(1, gain);
}

using LaneScratch = std::vector<std::optional<SwapEngine::Scratch>>;

/// Σ_v deviation_unrest over the engine's snapshot (the max model counts
/// the deletion clause), scanned on the pool in work_chunks chunks. Each
/// lane scans with its own scratch, built on its first agent and kept in
/// `lanes` (one slot per pool lane) for the caller's next pass; the lane
/// partials are summed, which is exact in any order.
std::uint64_t pooled_unrest(const SwapEngine& engine, UsageCost model, LaneScratch& lanes) {
  const CsrGraph& g = engine.snapshot();
  const Vertex n = g.num_vertices();
  ThreadPool& pool = ThreadPool::global();
  const std::uint64_t chunks =
      work_chunks(std::uint64_t{n} * (n + 2 * std::uint64_t{g.num_edges()}), pool.size());
  struct alignas(64) LaneSum {
    std::uint64_t sum = 0;
  };
  std::vector<LaneSum> partial(pool.size());
  engine.build_shared_rows();
  pool.parallel_for(n, (n + chunks - 1) / chunks, [&](std::uint64_t v, unsigned tid) {
    if (!lanes[tid]) lanes[tid].emplace();
    partial[tid].sum += deviation_unrest(engine.best_deviation(
        static_cast<Vertex>(v), model, *lanes[tid], /*include_deletions=*/model == UsageCost::Max));
  });
  std::uint64_t total = 0;
  for (const LaneSum& p : partial) total += p.sum;
  return total;
}

std::uint64_t unrest_of(const Graph& g, UsageCost model) {
  const SwapEngine engine(g);
  LaneScratch lanes(ThreadPool::global().size());
  return pooled_unrest(engine, model, lanes);
}

void toggle_edge(Graph& g, Vertex u, Vertex v) {
  if (g.has_edge(u, v)) {
    g.remove_edge(u, v);
  } else {
    g.add_edge(u, v);
  }
}

/// Connectivity/diameter screen of a proposed toggle.
struct ToggleShape {
  bool connected = false;
  Vertex diameter = 0;  ///< kInfDist when disconnected
};

/// Anneal's evaluator, in both models at every n. A proposal is applied to
/// the graph and evaluated on one SwapEngine rebuilt on it: the shape screen
/// is the largest eccentricity on the engine's shared slab (no connectivity
/// or diameter BFS; under a budget no slab may fit, and it screens by BFS), and
/// the unrest is pooled_unrest. Staging a new toggle discards an unaccepted
/// one.
class EngineEvaluator {
 public:
  EngineEvaluator(Graph g, UsageCost model, const ResourceConfig& resources)
      : graph_(std::move(g)),
        model_(model),
        engine_(graph_, resources),
        lanes_(ThreadPool::global().size()) {}

  /// Unrest of the start graph; called once, before the first proposal.
  std::uint64_t unrest() { return evaluate(); }

  ToggleShape propose_toggle(Vertex u, Vertex v) {
    discard();
    toggle_edge(graph_, u, v);
    staged_ = {u, v};
    const Vertex n = graph_.num_vertices();
    engine_.rebuild(graph_);
    // agent_cost reads the u16 slab whenever the u8 one is not preferred or
    // saturates, so the slab screen is taken only when a u16 slab fits.
    if (engine_.budget_policy().storage_for(n, DistWidth::U16) == RowStorage::Budgeted) {
      const Vertex d = diameter(graph_);
      return {d != kInfDist, d};
    }
    engine_.build_shared_rows();
    Vertex worst = 0;
    for (Vertex x = 0; x < n; ++x) {
      const std::uint64_t ecc = engine_.agent_cost(x, UsageCost::Max);
      if (ecc == kInfCost) return {false, kInfDist};
      worst = std::max(worst, static_cast<Vertex>(ecc));
    }
    return {true, worst};
  }

  std::uint64_t proposal_unrest() { return evaluate(); }

  void commit() { staged_.reset(); }

  const Graph& graph() {
    discard();
    return graph_;
  }

  DistWidth width() const { return engine_.preferred_width(); }

 private:
  std::uint64_t evaluate() { return pooled_unrest(engine_, model_, lanes_); }

  void discard() {
    if (staged_) toggle_edge(graph_, staged_->first, staged_->second);
    staged_.reset();
  }

  Graph graph_;  // the current graph, with the staged toggle applied
  UsageCost model_;
  std::optional<std::pair<Vertex, Vertex>> staged_;
  SwapEngine engine_;
  LaneScratch lanes_;
};

/// The anneal loop: returns the reached graph when unrest hit 0, and fills
/// every counter of `st` but the width.
std::optional<Graph> anneal_loop(EngineEvaluator& eval, const AnnealConfig& config,
                                 Xoshiro256ss& rng, AnnealStats& st) {
  const Vertex n = eval.graph().num_vertices();
  std::uint64_t current_unrest = eval.unrest();
  double temperature = config.initial_temperature;
  for (std::uint64_t step = 0; step < config.steps && current_unrest > 0; ++step) {
    temperature *= config.cooling;
    const Vertex u = static_cast<Vertex>(rng.below(n));
    const Vertex v = static_cast<Vertex>(rng.below(n));
    if (u == v) continue;
    ++st.proposals;
    const ToggleShape shape = eval.propose_toggle(u, v);
    if (!shape.connected || shape.diameter != config.target_diameter) {
      ++st.filtered;
      continue;
    }
    const std::uint64_t proposal_unrest = eval.proposal_unrest();
    ++st.evaluated;
    const double delta =
        static_cast<double>(proposal_unrest) - static_cast<double>(current_unrest);
    if (delta <= 0 || rng.uniform01() < std::exp(-delta / temperature)) {
      eval.commit();
      current_unrest = proposal_unrest;
      ++st.accepted;
    }
  }
  st.final_unrest = current_unrest;
  st.final_fingerprint = graph_fingerprint(eval.graph());
  if (current_unrest == 0) return eval.graph();
  return std::nullopt;
}

}  // namespace

std::uint64_t sum_unrest(const Graph& g) { return unrest_of(g, UsageCost::Sum); }

std::uint64_t max_unrest(const Graph& g) { return unrest_of(g, UsageCost::Max); }

std::optional<Graph> anneal_equilibrium(Graph start, const AnnealConfig& config,
                                        AnnealStats* stats) {
  const Vertex n = start.num_vertices();
  BNCG_REQUIRE(n >= 2, "search needs at least two vertices");
  AnnealStats local_stats;
  AnnealStats& st = stats != nullptr ? *stats : local_stats;
  st = AnnealStats{};  // reset up front so every exit reports this run
  Xoshiro256ss rng(config.seed);

  // Nudge the start onto the diameter constraint if it is off it: add edges
  // while too spread out, remove removable edges while too tight.
  int guard = 0;
  while (diameter(start) != config.target_diameter && guard++ < 4000) {
    const Vertex u = static_cast<Vertex>(rng.below(n));
    const Vertex v = static_cast<Vertex>(rng.below(n));
    if (u == v) continue;
    const Vertex d = diameter(start);
    if (d == kInfDist || d > config.target_diameter) {
      start.add_edge_if_absent(u, v);
    } else if (start.has_edge(u, v)) {
      start.remove_edge(u, v);
      if (!is_connected(start)) start.add_edge(u, v);
    }
  }
  if (diameter(start) != config.target_diameter) return std::nullopt;

  EngineEvaluator eval(std::move(start), config.cost, config.resources);
  std::optional<Graph> found = anneal_loop(eval, config, rng, st);
  st.dist_width = eval.width();
  return found;
}

std::optional<Graph> exhaustive_diameter3_sum_equilibrium(Vertex n) {
  BNCG_REQUIRE(n >= 2 && n <= 7, "exhaustive search supported for n <= 7");
  // Enumerate all edge subsets over the C(n,2) vertex pairs. Cheap filters
  // first (edge count, connectivity, diameter), full certification last.
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
  }
  const std::uint32_t num_pairs = static_cast<std::uint32_t>(pairs.size());
  BfsWorkspace ws;
  for (std::uint32_t mask = 0; mask < (1u << num_pairs); ++mask) {
    // Diameter 3 needs at least n−1 edges (connectivity) and at least one
    // non-adjacent pair, so skip masks outside [n−1, C(n,2) − 1] edges.
    const int bits = __builtin_popcount(mask);
    if (bits < static_cast<int>(n) - 1 || bits >= static_cast<int>(num_pairs)) continue;
    Graph g(n);
    for (std::uint32_t i = 0; i < num_pairs; ++i) {
      if (mask & (1u << i)) g.add_edge(pairs[i].first, pairs[i].second);
    }
    if (!bfs(g, 0, ws).spans(n)) continue;
    if (diameter(g) != 3) continue;
    bool stable = true;
    for (Vertex v = 0; v < n && stable; ++v) {
      // The allocation-free oracle wins at n ≤ 7: a SwapEngine build per
      // enumerated graph (millions of them) would be pure overhead.
      stable = !naive::first_sum_deviation(g, v, ws).has_value();
    }
    if (stable) return g;
  }
  return std::nullopt;
}

}  // namespace bncg
