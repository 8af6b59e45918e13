#include "core/tree_game.hpp"

#include <algorithm>

#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"

namespace bncg {

namespace {

/// BFS order + parent pointers from `root`; the backbone of the two-pass
/// subtree computations (iterative — no recursion on path-shaped trees).
struct RootedTree {
  std::vector<Vertex> order;   ///< BFS order, order[0] == root
  std::vector<Vertex> parent;  ///< parent[root] == kInfDist
};

RootedTree root_tree(const Graph& tree, Vertex root) {
  const Vertex n = tree.num_vertices();
  RootedTree rt;
  rt.order.reserve(n);
  rt.parent.assign(n, kInfDist);
  std::vector<bool> seen(n, false);
  seen[root] = true;
  rt.order.push_back(root);
  for (std::size_t head = 0; head < rt.order.size(); ++head) {
    const Vertex u = rt.order[head];
    for (const Vertex w : tree.neighbors(u)) {
      if (seen[w]) continue;
      seen[w] = true;
      rt.parent[w] = u;
      rt.order.push_back(w);
    }
  }
  return rt;
}

void require_tree(const Graph& g) { BNCG_REQUIRE(is_tree(g), "tree-game functions require a tree"); }

}  // namespace

std::vector<std::uint64_t> tree_distance_sums(const Graph& tree) {
  require_tree(tree);
  const Vertex n = tree.num_vertices();
  std::vector<std::uint64_t> sum(n, 0);
  if (n == 0) return sum;

  const RootedTree rt = root_tree(tree, 0);
  std::vector<std::uint64_t> size(n, 1);
  std::vector<std::uint64_t> down(n, 0);  // Σ_{x in subtree(v)} d(v, x)

  // Post-order accumulation (reverse BFS order visits children first).
  for (std::size_t i = rt.order.size(); i-- > 1;) {
    const Vertex v = rt.order[i];
    const Vertex p = rt.parent[v];
    size[p] += size[v];
    down[p] += down[v] + size[v];
  }
  // Pre-order rerooting: moving the root across edge p→v trades the v-side
  // (closer by 1) against the rest (farther by 1).
  sum[0] = down[0];
  for (std::size_t i = 1; i < rt.order.size(); ++i) {
    const Vertex v = rt.order[i];
    const Vertex p = rt.parent[v];
    sum[v] = sum[p] - size[v] + (n - size[v]);
  }
  return sum;
}

Vertex tree_one_median(const Graph& tree) {
  const auto sums = tree_distance_sums(tree);
  BNCG_REQUIRE(!sums.empty(), "median of an empty tree");
  return static_cast<Vertex>(std::min_element(sums.begin(), sums.end()) - sums.begin());
}

namespace naive {

std::optional<TreeMove> best_tree_deviation(const Graph& tree, Vertex v) {
  require_tree(tree);
  tree.check_vertex(v);
  std::optional<TreeMove> best;
  const std::vector<Vertex> nbrs(tree.neighbors(v).begin(), tree.neighbors(v).end());
  std::vector<bool> blocked(tree.num_vertices(), false);
  for (const Vertex a : nbrs) {
    // Component of a in T − va: exactly the subtree v would re-attach.
    blocked.assign(tree.num_vertices(), false);
    blocked[v] = true;
    std::vector<Vertex> component{a};
    blocked[a] = true;
    for (std::size_t head = 0; head < component.size(); ++head) {
      for (const Vertex w : tree.neighbors(component[head])) {
        if (!blocked[w]) {
          blocked[w] = true;
          component.push_back(w);
        }
      }
    }
    std::sort(component.begin(), component.end());
    // Distance sums *within* the detached subtree; v's post-swap distance
    // sum to it is |T_a| + S_{T_a}(attach point), so the optimum is the
    // subtree's 1-median.
    const Graph sub = induced_subgraph(tree, component);
    const auto sums = tree_distance_sums(sub);
    const std::size_t a_local =
        static_cast<std::size_t>(std::lower_bound(component.begin(), component.end(), a) -
                                 component.begin());
    const std::size_t best_local =
        static_cast<std::size_t>(std::min_element(sums.begin(), sums.end()) - sums.begin());
    if (sums[best_local] < sums[a_local]) {
      const std::uint64_t gain = sums[a_local] - sums[best_local];
      if (!best || gain > best->gain) {
        best = TreeMove{v, a, component[best_local], gain};
      }
    }
  }
  return best;
}

}  // namespace naive

std::optional<TreeMove> best_tree_deviation(const Graph& tree, Vertex v) {
  TreeGameScratch scratch;
  return best_tree_deviation(tree, v, scratch);
}

std::optional<TreeMove> best_tree_deviation(const Graph& tree, Vertex v,
                                            TreeGameScratch& s) {
  tree.check_vertex(v);
  const Vertex n = tree.num_vertices();
  // Tree validation is folded into the work the sweep does anyway: the O(1)
  // edge count here, connectivity from the rooting BFS below (a connected
  // graph on n − 1 edges is a tree) — the one-shot overload's is_tree BFS
  // would double this function's cost on repeated sweeps.
  BNCG_REQUIRE(n == 0 || tree.num_edges() == static_cast<std::size_t>(n) - 1,
               "tree-game functions require a tree");
  std::optional<TreeMove> best;
  const auto nbrs = tree.neighbors(v);
  if (nbrs.empty()) return best;

  // One rooting at v covers every detachable subtree at once: rooted there,
  // the component of neighbor a in T − va is exactly a's subtree, and the
  // within-component distance sums come from the standard two passes —
  // post-order size/down, then a rerooting pre-order sweep confined to each
  // component (the oracle pays a BFS, a sort, and an induced-subgraph build
  // per neighbor for the same numbers). The rooting marks visited vertices
  // through the parent array itself (v is temporarily self-parented), so one
  // sweep with a reused scratch touches no allocator at all.
  s.order.clear();
  s.order.reserve(n);
  s.parent.assign(n, kInfDist);
  s.parent[v] = v;
  s.order.push_back(v);
  for (std::size_t head = 0; head < s.order.size(); ++head) {
    const Vertex u = s.order[head];
    for (const Vertex w : tree.neighbors(u)) {
      if (s.parent[w] != kInfDist) continue;
      s.parent[w] = u;
      s.order.push_back(w);
    }
  }
  s.parent[v] = kInfDist;
  BNCG_REQUIRE(s.order.size() == static_cast<std::size_t>(n),
               "tree-game functions require a tree");

  s.size.assign(n, 1);
  s.down.assign(n, 0);
  for (std::size_t i = s.order.size(); i-- > 1;) {
    const Vertex x = s.order[i];
    const Vertex p = s.parent[x];
    s.size[p] += s.size[x];
    s.down[p] += s.down[x] + s.size[x];
  }

  // croot[x] = the neighbor of v whose component holds x; sums[x] = Σ
  // distances from x within that component. Pre-order guarantees parents are
  // finished first.
  s.croot.assign(n, kInfDist);
  s.sums.assign(n, 0);
  for (std::size_t i = 1; i < s.order.size(); ++i) {
    const Vertex x = s.order[i];
    const Vertex p = s.parent[x];
    if (p == v) {
      s.croot[x] = x;
      s.sums[x] = s.down[x];
    } else {
      s.croot[x] = s.croot[p];
      const std::uint64_t comp = s.size[s.croot[x]];
      s.sums[x] = s.sums[p] - s.size[x] + (comp - s.size[x]);
    }
  }

  // Per-component 1-median, lowest id on ties: an ascending-id sweep with a
  // strict < keeps the first minimizer, matching the oracle's min_element
  // over the sorted component.
  s.median.assign(n, kInfDist);
  for (Vertex x = 0; x < n; ++x) {
    if (x == v) continue;
    const Vertex a = s.croot[x];
    if (s.median[a] == kInfDist || s.sums[x] < s.sums[s.median[a]]) s.median[a] = x;
  }
  for (const Vertex a : nbrs) {
    const Vertex m = s.median[a];
    if (s.sums[m] < s.sums[a]) {
      const std::uint64_t gain = s.sums[a] - s.sums[m];
      if (!best || gain > best->gain) best = TreeMove{v, a, m, gain};
    }
  }
  return best;
}

TreeDynamicsResult run_tree_dynamics(Graph tree, std::uint64_t max_moves) {
  require_tree(tree);
  TreeDynamicsResult result;
  result.tree = std::move(tree);
  const Vertex n = result.tree.num_vertices();
  TreeGameScratch scratch;
  for (;;) {
    bool any_move = false;
    for (Vertex v = 0; v < n && result.moves < max_moves; ++v) {
      const auto move = best_tree_deviation(result.tree, v, scratch);
      if (!move) continue;
      result.tree.remove_edge(move->v, move->old_neighbor);
      result.tree.add_edge(move->v, move->new_neighbor);
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

std::optional<Theorem1Witness> theorem1_witness(const Graph& tree) {
  require_tree(tree);
  const Vertex n = tree.num_vertices();
  BfsWorkspace ws;
  for (Vertex v = 0; v < n; ++v) {
    const RootedTree rt = root_tree(tree, v);
    (void)bfs(tree, v, ws);
    const std::vector<Vertex>& dist = ws.dist();
    for (Vertex w = 0; w < n; ++w) {
      if (dist[w] != 3) continue;
      // Reconstruct the path v → a → b → w via parents from the root v.
      const Vertex b = rt.parent[w];
      const Vertex a = rt.parent[b];
      Theorem1Witness witness;
      witness.v = v;
      witness.a = a;
      witness.b = b;
      witness.w = w;
      // Component sizes when the three path edges are removed.
      const auto size_without = [&](Vertex keep, Vertex cut1, Vertex cut2) {
        std::vector<bool> seen(n, false);
        seen[cut1] = true;
        if (cut2 != kInfDist) seen[cut2] = true;
        std::vector<Vertex> stack{keep};
        seen[keep] = true;
        std::uint64_t count = 0;
        while (!stack.empty()) {
          const Vertex u = stack.back();
          stack.pop_back();
          ++count;
          for (const Vertex x : tree.neighbors(u)) {
            if (!seen[x]) {
              seen[x] = true;
              stack.push_back(x);
            }
          }
        }
        return count;
      };
      witness.sv = size_without(v, a, kInfDist);
      witness.sa = size_without(a, v, b);
      witness.sb = size_without(b, a, w);
      witness.sw = size_without(w, b, kInfDist);
      witness.v_swap_wins = witness.sb + witness.sw > witness.sa;
      witness.w_swap_wins = witness.sv + witness.sa > witness.sb;
      return witness;
    }
  }
  return std::nullopt;  // diameter ≤ 2
}

}  // namespace bncg
