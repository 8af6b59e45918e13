#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bncg {

namespace {

/// Sorted-vector membership test.
[[nodiscard]] bool contains_sorted(const std::vector<Vertex>& xs, Vertex v) {
  return std::binary_search(xs.begin(), xs.end(), v);
}

/// Sorted-vector insertion (keeps order).
void insert_sorted(std::vector<Vertex>& xs, Vertex v) {
  xs.insert(std::lower_bound(xs.begin(), xs.end(), v), v);
}

/// Sorted-vector erase. Precondition: element present.
void erase_sorted(std::vector<Vertex>& xs, Vertex v) {
  xs.erase(std::lower_bound(xs.begin(), xs.end(), v));
}

}  // namespace

bool Graph::has_edge(Vertex v, Vertex w) const {
  check_vertex(v);
  check_vertex(w);
  // Probe the smaller adjacency list.
  const auto& probe = adj_[v].size() <= adj_[w].size() ? adj_[v] : adj_[w];
  const Vertex target = adj_[v].size() <= adj_[w].size() ? w : v;
  return contains_sorted(probe, target);
}

void Graph::add_edge(Vertex v, Vertex w) {
  check_vertex(v);
  check_vertex(w);
  BNCG_REQUIRE(v != w, "self-loops are not allowed");
  BNCG_REQUIRE(!has_edge(v, w), "edge already present");
  insert_sorted(adj_[v], w);
  insert_sorted(adj_[w], v);
  ++num_edges_;
}

bool Graph::add_edge_if_absent(Vertex v, Vertex w) {
  check_vertex(v);
  check_vertex(w);
  BNCG_REQUIRE(v != w, "self-loops are not allowed");
  if (has_edge(v, w)) return false;
  insert_sorted(adj_[v], w);
  insert_sorted(adj_[w], v);
  ++num_edges_;
  return true;
}

void Graph::remove_edge(Vertex v, Vertex w) {
  check_vertex(v);
  check_vertex(w);
  BNCG_REQUIRE(has_edge(v, w), "edge not present");
  erase_sorted(adj_[v], w);
  erase_sorted(adj_[w], v);
  --num_edges_;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(num_edges_);
  for (Vertex v = 0; v < num_vertices(); ++v) {
    for (const Vertex w : adj_[v]) {
      if (v < w) result.push_back({v, w});
    }
  }
  return result;
}

void Graph::check_invariants() const {
  std::size_t half_edges = 0;
  for (Vertex v = 0; v < num_vertices(); ++v) {
    const auto& nbrs = adj_[v];
    if (!std::is_sorted(nbrs.begin(), nbrs.end())) {
      throw std::logic_error("bncg::Graph invariant: adjacency not sorted");
    }
    if (std::adjacent_find(nbrs.begin(), nbrs.end()) != nbrs.end()) {
      throw std::logic_error("bncg::Graph invariant: parallel edge");
    }
    for (const Vertex w : nbrs) {
      if (w == v) throw std::logic_error("bncg::Graph invariant: self-loop");
      if (w >= num_vertices()) throw std::logic_error("bncg::Graph invariant: dangling endpoint");
      if (!contains_sorted(adj_[w], v)) {
        throw std::logic_error("bncg::Graph invariant: asymmetric adjacency");
      }
    }
    half_edges += nbrs.size();
  }
  if (half_edges != 2 * num_edges_) {
    throw std::logic_error("bncg::Graph invariant: edge count mismatch");
  }
}

Graph graph_from_edges(Vertex n, const std::vector<std::pair<Vertex, Vertex>>& edge_list) {
  Graph g(n);
  for (const auto& [u, v] : edge_list) g.add_edge(u, v);
  return g;
}

Graph complement(const Graph& g) {
  const Vertex n = g.num_vertices();
  Graph result(n);
  for (Vertex v = 0; v < n; ++v) {
    for (Vertex w = v + 1; w < n; ++w) {
      if (!g.has_edge(v, w)) result.add_edge(v, w);
    }
  }
  return result;
}

std::string to_string(const Graph& g) {
  std::string out = "n=";
  out += std::to_string(g.num_vertices());
  out += " m=";
  out += std::to_string(g.num_edges());
  out += ":";
  for (const auto& [u, v] : g.edges()) {
    out += ' ';
    out += std::to_string(u);
    out += '-';
    out += std::to_string(v);
  }
  return out;
}

}  // namespace bncg
