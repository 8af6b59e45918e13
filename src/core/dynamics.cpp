#include "core/dynamics.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "core/certify_sharded.hpp"
#include "core/swap_engine.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"

namespace bncg {

namespace {

/// Move provider for the dynamics loop, in two tiers:
///  * SwapEngine-backed (default): one CSR snapshot and one shared unmasked
///    APSP per accepted move, one masked-row repair per scan.
///  * naive (BNCG_FORCE_NAIVE): the original BFS-per-candidate oracle.
/// Both return bit-identical deviations, so trajectories do not depend on
/// the tier (differential-tested in tests/test_dynamics.cpp).
class MoveProvider {
 public:
  MoveProvider(const Graph& g, const DynamicsConfig& config)
      : config_(config),
        deletions_(config.cost == UsageCost::Max && config.allow_neutral_deletions) {
    if (!force_naive_requested()) engine_.emplace(g, config.resources);
  }

  /// Must be called after every executed move (graph mutated accordingly).
  void on_move(const Graph& g) {
    if (engine_) engine_->rebuild(g);
  }

  /// Picks the deviation for agent `v` according to the configured model and
  /// policy. Neutral deletions are only surfaced in the max model when asked.
  std::optional<Deviation> agent_deviation(const Graph& g, Vertex v) {
    const UsageCost cost = config_.cost;
    const auto scan = [&](bool first, bool deletions) -> std::optional<Deviation> {
      if (engine_) {
        return first ? engine_->first_deviation(v, cost, deletions)
                     : engine_->best_deviation(v, cost, deletions);
      }
      if (cost == UsageCost::Sum) {
        return first ? naive::first_sum_deviation(g, v, ws_)
                     : naive::best_sum_deviation(g, v, ws_);
      }
      return first ? naive::first_max_deviation(g, v, ws_, deletions)
                   : naive::best_max_deviation(g, v, ws_, deletions);
    };
    if (config_.policy == MovePolicy::FirstImprovement) return scan(/*first=*/true, deletions_);
    // Best-improvement: prefer the best improving swap, fall back to a
    // neutral deletion (which never competes on cost_after).
    auto best = scan(/*first=*/false, /*deletions=*/false);
    if (!best && deletions_) best = scan(/*first=*/true, /*deletions=*/true);
    return best;
  }

  /// True iff the graph is in equilibrium for the configured game (including
  /// the deletion clause when neutral deletions participate in the max game).
  bool certified(const Graph& g) {
    if (engine_) {
      ShardedCertifyConfig certify;
      certify.resources = config_.resources;
      return certify_sharded(g, config_.cost, deletions_, certify).certificate.is_equilibrium;
    }
    if (config_.cost == UsageCost::Sum) return naive::certify_sum_equilibrium(g).is_equilibrium;
    if (deletions_) return naive::certify_max_equilibrium(g).is_equilibrium;
    // Swap-only max dynamics: check swap stability for every agent.
    const Vertex n = g.num_vertices();
    for (Vertex v = 0; v < n; ++v) {
      if (naive::first_max_deviation(g, v, ws_, /*include_deletions=*/false)) return false;
    }
    return true;
  }

 private:
  const DynamicsConfig& config_;
  const bool deletions_;  // max model with neutral deletions
  std::optional<SwapEngine> engine_;
  BfsWorkspace ws_;
};

/// Executes a deviation on the live graph. NonCriticalDelete witnesses
/// encode a pure deletion (add_w == remove_w), which ScopedSwap treats as a
/// no-op — handle it explicitly.
void execute(Graph& g, const Deviation& dev) {
  if (dev.kind == Deviation::Kind::NonCriticalDelete) {
    g.remove_edge(dev.swap.v, dev.swap.remove_w);
    return;
  }
  apply_swap(g, dev.swap);
}

void record(const Graph& g, UsageCost model, std::uint64_t move, std::vector<TraceEntry>& trace) {
  trace.push_back({move, social_cost(g, model), diameter(g)});
}

}  // namespace

std::uint64_t social_cost(const Graph& g, UsageCost model) {
  const Vertex n = g.num_vertices();
  BfsWorkspace ws;
  std::uint64_t total = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t c = vertex_cost(g, v, model, ws);
    if (c == kInfCost) return kInfCost;
    total += c;
  }
  return total;
}

DynamicsResult run_dynamics(Graph start, const DynamicsConfig& config) {
  BNCG_REQUIRE(is_connected(start), "dynamics require a connected start graph");
  DynamicsResult result;
  result.graph = std::move(start);
  Graph& g = result.graph;
  const Vertex n = g.num_vertices();

  Xoshiro256ss rng(config.seed);
  MoveProvider provider(g, config);
  if (config.record_trace) record(g, config.cost, 0, result.trace);

  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), Vertex{0});

  std::unordered_set<std::string> visited;
  if (config.detect_revisits) visited.insert(to_graph6(g));

  bool out_of_budget = false;
  const auto take_move = [&](const Deviation& dev) {
    execute(g, dev);
    provider.on_move(g);
    ++result.moves;
    if (config.record_trace) record(g, config.cost, result.moves, result.trace);
    if (config.detect_revisits && !result.revisited &&
        !visited.insert(to_graph6(g)).second) {
      result.revisited = true;
      result.first_revisit_move = result.moves;
    }
    if (result.moves >= config.max_moves) out_of_budget = true;
  };

  for (;;) {
    bool any_move = false;
    if (config.scheduler == Scheduler::GreedyGlobal) {
      // One pass = one globally best move.
      std::optional<Deviation> best;
      for (Vertex v = 0; v < n && !out_of_budget; ++v) {
        const auto dev = provider.agent_deviation(g, v);
        if (!dev) continue;
        // Rank by absolute improvement; neutral deletions rank last.
        const auto gain = [](const Deviation& d) {
          return d.cost_before == kInfCost ? kInfCost : d.cost_before - d.cost_after;
        };
        if (!best || gain(*dev) > gain(*best)) best = dev;
      }
      if (best) {
        any_move = true;
        take_move(*best);
      }
    } else {
      if (config.scheduler == Scheduler::RandomOrder) rng.shuffle(order);
      for (const Vertex v : order) {
        if (out_of_budget) break;
        const auto dev = provider.agent_deviation(g, v);
        if (!dev) continue;
        any_move = true;
        take_move(*dev);
      }
    }
    ++result.passes;
    if (!any_move || out_of_budget) break;
  }

  // A quiet pass under FirstImprovement scanning is already an exhaustive
  // certificate for the *scanned* move set; re-certify explicitly so the
  // flag is trustworthy regardless of policy or early exit.
  result.converged = !out_of_budget && provider.certified(g);
  return result;
}

}  // namespace bncg
