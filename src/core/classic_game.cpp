#include "core/classic_game.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/swap.hpp"

namespace bncg {

namespace {
/// Finite stand-in for +∞ cost that still orders correctly under addition
/// of α terms.
constexpr double kHugeCost = 1e18;
}  // namespace

ClassicGame::ClassicGame(Graph g, double alpha) : graph_(std::move(g)), alpha_(alpha) {
  BNCG_REQUIRE(alpha >= 0.0, "alpha must be nonnegative");
  for (const auto& [u, v] : graph_.edges()) owner_[key(u, v)] = u;
}

ClassicGame::ClassicGame(Graph g, double alpha, const std::vector<Vertex>& owners)
    : graph_(std::move(g)), alpha_(alpha) {
  BNCG_REQUIRE(alpha >= 0.0, "alpha must be nonnegative");
  const auto edge_list = graph_.edges();
  BNCG_REQUIRE(owners.size() == edge_list.size(), "one owner per edge required");
  for (std::size_t i = 0; i < edge_list.size(); ++i) {
    const auto& [u, v] = edge_list[i];
    BNCG_REQUIRE(owners[i] == u || owners[i] == v, "owner must be an endpoint");
    owner_[key(u, v)] = owners[i];
  }
}

Vertex ClassicGame::owner(Vertex u, Vertex v) const {
  BNCG_REQUIRE(graph_.has_edge(u, v), "edge not present");
  return owner_.at(key(u, v));
}

Vertex ClassicGame::edges_bought(Vertex v) const {
  graph_.check_vertex(v);
  Vertex count = 0;
  for (const Vertex w : graph_.neighbors(v)) {
    if (owner_.at(key(v, w)) == v) ++count;
  }
  return count;
}

double ClassicGame::vertex_cost(Vertex v, BfsWorkspace& ws) const {
  const BfsResult r = bfs(graph_, v, ws);
  if (!r.spans(graph_.num_vertices())) return kHugeCost;
  return alpha_ * edges_bought(v) + static_cast<double>(r.dist_sum);
}

double ClassicGame::social_cost() const {
  BfsWorkspace ws;
  double total = alpha_ * static_cast<double>(graph_.num_edges());
  for (Vertex v = 0; v < graph_.num_vertices(); ++v) {
    const BfsResult r = bfs(graph_, v, ws);
    if (!r.spans(graph_.num_vertices())) return kHugeCost;
    total += static_cast<double>(r.dist_sum);
  }
  return total;
}

std::optional<ClassicMove> ClassicGame::best_deviation_naive(Vertex v, BfsWorkspace& ws) const {
  graph_.check_vertex(v);
  // Work on a scratch copy; moves are evaluated by direct mutation + BFS.
  Graph work = graph_;
  const Vertex n = work.num_vertices();
  const auto usage = [&](Vertex from) -> double {
    const BfsResult r = bfs(work, from, ws);
    return r.spans(n) ? static_cast<double>(r.dist_sum) : kHugeCost;
  };
  const double old_usage = usage(v);
  const double old_cost = alpha_ * edges_bought(v) + old_usage;

  std::optional<ClassicMove> best;
  const auto consider = [&](ClassicMove move, double new_cost) {
    // Strictness margin guards against floating-point ties when α is such
    // that a move is exactly neutral.
    const double gain = old_cost - new_cost;
    if (gain <= 1e-9) return;
    move.gain = gain;
    if (!best || move.gain > best->gain) best = move;
  };

  // Add moves: buy a new edge v–w.
  for (Vertex w = 0; w < n; ++w) {
    if (w == v || work.has_edge(v, w)) continue;
    work.add_edge(v, w);
    consider({ClassicMove::Type::Add, v, w, 0, 0.0},
             alpha_ * (edges_bought(v) + 1) + usage(v));
    work.remove_edge(v, w);
  }

  // Delete and swap moves apply to edges *owned* by v only.
  const std::vector<Vertex> nbrs(work.neighbors(v).begin(), work.neighbors(v).end());
  for (const Vertex w : nbrs) {
    if (owner_.at(key(v, w)) != v) continue;
    // Delete v–w.
    work.remove_edge(v, w);
    consider({ClassicMove::Type::Delete, v, w, 0, 0.0},
             alpha_ * (edges_bought(v) - 1) + usage(v));
    // Swap v–w → v–w2 (same α term).
    for (Vertex w2 = 0; w2 < n; ++w2) {
      if (w2 == v || w2 == w || work.has_edge(v, w2)) continue;
      work.add_edge(v, w2);
      consider({ClassicMove::Type::Swap, v, w, w2, 0.0},
               alpha_ * edges_bought(v) + usage(v));
      work.remove_edge(v, w2);
    }
    work.add_edge(v, w);
  }
  return best;
}

std::optional<ClassicMove> ClassicGame::best_deviation_engine(const SwapEngine& engine,
                                                              SwapEngine::Scratch& scratch,
                                                              Vertex v) const {
  graph_.check_vertex(v);
  const Vertex n = graph_.num_vertices();
  std::vector<std::uint8_t> owned(n, 0);
  for (const Vertex w : graph_.neighbors(v)) {
    owned[w] = owner_.at(key(v, w)) == v ? 1 : 0;
  }
  // The engine hands back pure-integer usages in the naive enumeration
  // order; the α arithmetic below is character-for-character the naive
  // path's double pipeline, so gains and tie-breaks match bit for bit.
  const auto& candidates = engine.alpha_scan(v, owned, scratch);
  const auto as_usage = [](std::uint64_t usage) {
    return usage == kInfCost ? kHugeCost : static_cast<double>(usage);
  };
  const double old_usage = as_usage(engine.agent_cost(v, UsageCost::Sum));
  const double old_cost = alpha_ * edges_bought(v) + old_usage;

  std::optional<ClassicMove> best;
  const auto consider = [&](ClassicMove move, double new_cost) {
    const double gain = old_cost - new_cost;
    if (gain <= 1e-9) return;
    move.gain = gain;
    if (!best || move.gain > best->gain) best = move;
  };
  for (const AlphaCandidate& c : candidates) {
    switch (c.kind) {
      case AlphaCandidate::Kind::Add:
        consider({ClassicMove::Type::Add, v, c.w, 0, 0.0},
                 alpha_ * (edges_bought(v) + 1) + as_usage(c.usage));
        break;
      case AlphaCandidate::Kind::Delete:
        consider({ClassicMove::Type::Delete, v, c.w, 0, 0.0},
                 alpha_ * (edges_bought(v) - 1) + as_usage(c.usage));
        break;
      case AlphaCandidate::Kind::Swap:
        consider({ClassicMove::Type::Swap, v, c.w, c.w2, 0.0},
                 alpha_ * edges_bought(v) + as_usage(c.usage));
        break;
    }
  }
  return best;
}

std::optional<ClassicMove> ClassicGame::best_deviation(Vertex v, BfsWorkspace& ws) const {
  if (force_naive_requested()) return best_deviation_naive(v, ws);
  SwapEngine engine(graph_);
  SwapEngine::Scratch scratch;
  return best_deviation_engine(engine, scratch, v);
}

AlphaInterval ClassicGame::alpha_equilibrium_interval_naive() const {
  AlphaInterval interval;
  BfsWorkspace ws;
  Graph work = graph_;
  const Vertex n = work.num_vertices();
  const auto usage = [&](Vertex from) -> double {
    const BfsResult r = bfs(work, from, ws);
    return r.spans(n) ? static_cast<double>(r.dist_sum) : kHugeCost;
  };
  for (Vertex v = 0; v < n; ++v) {
    const double old_usage = usage(v);
    // Same enumeration as best_deviation_naive; only the α-free usage
    // differences are harvested (add: α must cover the usage drop; delete:
    // α must not exceed the usage rise; swap: improves independent of α).
    for (Vertex w = 0; w < n; ++w) {
      if (w == v || work.has_edge(v, w)) continue;
      work.add_edge(v, w);
      interval.lo = std::max(interval.lo, old_usage - usage(v));
      work.remove_edge(v, w);
    }
    const std::vector<Vertex> nbrs(work.neighbors(v).begin(), work.neighbors(v).end());
    for (const Vertex w : nbrs) {
      if (owner_.at(key(v, w)) != v) continue;
      work.remove_edge(v, w);
      interval.hi = std::min(interval.hi, usage(v) - old_usage);
      for (Vertex w2 = 0; w2 < n; ++w2) {
        if (w2 == v || w2 == w || work.has_edge(v, w2)) continue;
        work.add_edge(v, w2);
        if (old_usage - usage(v) > 1e-9) interval.swap_blocked = true;
        work.remove_edge(v, w2);
      }
      work.add_edge(v, w);
    }
  }
  return interval;
}

AlphaInterval ClassicGame::alpha_equilibrium_interval() const {
  if (force_naive_requested()) return alpha_equilibrium_interval_naive();
  AlphaInterval interval;
  const SwapEngine engine(graph_);
  SwapEngine::Scratch scratch;
  const Vertex n = graph_.num_vertices();
  const auto as_usage = [](std::uint64_t usage) {
    return usage == kInfCost ? kHugeCost : static_cast<double>(usage);
  };
  std::vector<std::uint8_t> owned(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    std::fill(owned.begin(), owned.end(), 0);
    for (const Vertex w : graph_.neighbors(v)) {
      owned[w] = owner_.at(key(v, w)) == v ? 1 : 0;
    }
    const double old_usage = as_usage(engine.agent_cost(v, UsageCost::Sum));
    for (const AlphaCandidate& c : engine.alpha_scan(v, owned, scratch)) {
      switch (c.kind) {
        case AlphaCandidate::Kind::Add:
          interval.lo = std::max(interval.lo, old_usage - as_usage(c.usage));
          break;
        case AlphaCandidate::Kind::Delete:
          interval.hi = std::min(interval.hi, as_usage(c.usage) - old_usage);
          break;
        case AlphaCandidate::Kind::Swap:
          if (old_usage - as_usage(c.usage) > 1e-9) interval.swap_blocked = true;
          break;
      }
    }
  }
  return interval;
}

void ClassicGame::apply(const ClassicMove& move) {
  switch (move.type) {
    case ClassicMove::Type::Add:
      graph_.add_edge(move.v, move.w);
      owner_[key(move.v, move.w)] = move.v;
      break;
    case ClassicMove::Type::Delete:
      BNCG_REQUIRE(owner(move.v, move.w) == move.v, "agent can only delete owned edges");
      graph_.remove_edge(move.v, move.w);
      owner_.erase(key(move.v, move.w));
      break;
    case ClassicMove::Type::Swap:
      BNCG_REQUIRE(owner(move.v, move.w) == move.v, "agent can only swap owned edges");
      graph_.remove_edge(move.v, move.w);
      owner_.erase(key(move.v, move.w));
      graph_.add_edge(move.v, move.w2);
      owner_[key(move.v, move.w2)] = move.v;
      break;
  }
}

bool ClassicGame::is_greedy_equilibrium() const {
  if (force_naive_requested()) {
    BfsWorkspace ws;
    for (Vertex v = 0; v < graph_.num_vertices(); ++v) {
      if (best_deviation_naive(v, ws)) return false;
    }
    return true;
  }
  // One snapshot serves every agent — the graph is const here.
  const SwapEngine engine(graph_);
  SwapEngine::Scratch scratch;
  for (Vertex v = 0; v < graph_.num_vertices(); ++v) {
    if (best_deviation_engine(engine, scratch, v)) return false;
  }
  return true;
}

ClassicGame::RunResult ClassicGame::run_best_response(std::uint64_t max_moves) {
  RunResult result;
  BfsWorkspace ws;
  const Vertex n = graph_.num_vertices();
  const bool engine_path = !force_naive_requested();
  std::optional<SwapEngine> engine;
  SwapEngine::Scratch scratch;
  if (engine_path) engine.emplace(graph_);
  for (;;) {
    bool any_move = false;
    for (Vertex v = 0; v < n; ++v) {
      if (result.moves >= max_moves) break;
      const auto move =
          engine_path ? best_deviation_engine(*engine, scratch, v) : best_deviation_naive(v, ws);
      if (!move) continue;
      apply(*move);
      if (engine_path) engine->rebuild(graph_);  // snapshots are immutable
      ++result.moves;
      any_move = true;
    }
    ++result.passes;
    if (!any_move) {
      result.converged = true;
      break;
    }
    if (result.moves >= max_moves) break;
  }
  return result;
}

double star_social_cost(Vertex n, double alpha) {
  if (n <= 1) return 0.0;
  // Center: n−1 at distance 1. Leaf: 1 + 2(n−2). Total usage = 2(n−1)².
  const double nn = static_cast<double>(n);
  return alpha * (nn - 1) + 2.0 * (nn - 1) * (nn - 1);
}

double clique_social_cost(Vertex n, double alpha) {
  if (n <= 1) return 0.0;
  const double nn = static_cast<double>(n);
  return alpha * nn * (nn - 1) / 2.0 + nn * (nn - 1);
}

double optimal_social_cost(Vertex n, double alpha) {
  return std::min(star_social_cost(n, alpha), clique_social_cost(n, alpha));
}

}  // namespace bncg
