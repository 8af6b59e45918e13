#include "gen/paper.hpp"

#include <algorithm>

namespace bncg {

Graph fig3_diameter3_graph() {
  using namespace fig3;
  Graph g(kNumVertices);
  for (Vertex i = 1; i <= 3; ++i) {
    g.add_edge(kA, b(i));
    g.add_edge(b(i), c(i, 1));
    g.add_edge(b(i), c(i, 2));
    g.add_edge(d(i), c(i, 1));
    g.add_edge(d(i), c(i, 2));
  }
  // Straight matchings C1–C2 and C2–C3: c_{i,1}c_{j,1} and c_{i,2}c_{j,2}.
  for (Vertex t = 1; t <= 2; ++t) {
    g.add_edge(c(1, t), c(2, t));
    g.add_edge(c(2, t), c(3, t));
  }
  // Crossed matching C1–C3: c_{1,1}c_{3,2} and c_{1,2}c_{3,1}.
  g.add_edge(c(1, 1), c(3, 2));
  g.add_edge(c(1, 2), c(3, 1));
  return g;
}

Graph diameter3_sum_equilibrium_n8() {
  // Found by anneal_equilibrium in the sum model (seeded, reproducible) and
  // certified by certify_sum_equilibrium plus an independent brute-force
  // re-check in the tests. Eccentricities are (3,2,3,2,2,3,2,3); diameter 3;
  // 11 edges.
  return graph_from_edges(8, {{0, 1},
                              {0, 4},
                              {1, 3},
                              {1, 6},
                              {1, 7},
                              {2, 3},
                              {2, 4},
                              {3, 5},
                              {4, 6},
                              {5, 6},
                              {6, 7}});
}

namespace {

/// k^dim with overflow guard.
[[nodiscard]] std::uint64_t checked_pow(Vertex k, Vertex dim) {
  std::uint64_t result = 1;
  for (Vertex t = 0; t < dim; ++t) {
    result *= k;
    BNCG_REQUIRE(result < (std::uint64_t{1} << 31), "diagonal torus too large");
  }
  return result;
}

}  // namespace

DiagonalTorus::DiagonalTorus(Vertex dim, Vertex k) : dim_(dim), k_(k), graph_(0) {
  BNCG_REQUIRE(dim >= 1, "dimension must be >= 1");
  BNCG_REQUIRE(k >= 2, "side parameter k must be >= 2");
  const std::uint64_t half = checked_pow(k, dim);
  const Vertex n = static_cast<Vertex>(2 * half);
  graph_ = Graph(n);

  // Enumerate vertices by (parity p, digits in base k) and connect each to
  // all 2^dim diagonal neighbors with a larger id guard to add each edge once.
  std::vector<Vertex> coord(dim_);
  const Vertex num_signs = Vertex{1} << dim_;
  for (Vertex v = 0; v < n; ++v) {
    const std::vector<Vertex> cv = coords(v);
    for (Vertex signs = 0; signs < num_signs; ++signs) {
      for (Vertex t = 0; t < dim_; ++t) {
        const Vertex delta = (signs >> t) & 1 ? 1 : 2 * k_ - 1;  // +1 or −1 mod 2k
        coord[t] = (cv[t] + delta) % (2 * k_);
      }
      const Vertex w = id(coord);
      if (v < w) graph_.add_edge_if_absent(v, w);
    }
  }
}

Vertex DiagonalTorus::id(const std::vector<Vertex>& coords) const {
  BNCG_REQUIRE(coords.size() == dim_, "coordinate arity mismatch");
  const Vertex parity = coords[0] & 1;
  std::uint64_t index = 0;
  for (Vertex t = 0; t < dim_; ++t) {
    BNCG_REQUIRE(coords[t] < 2 * k_, "coordinate out of range");
    BNCG_REQUIRE((coords[t] & 1) == parity, "coordinates must share parity");
    index = index * k_ + coords[t] / 2;
  }
  return static_cast<Vertex>(static_cast<std::uint64_t>(parity) * (graph_.num_vertices() / 2) +
                             index);
}

std::vector<Vertex> DiagonalTorus::coords(Vertex v) const {
  graph_.check_vertex(v);
  const Vertex half = graph_.num_vertices() / 2;
  const Vertex parity = v >= half ? 1 : 0;
  std::uint64_t index = v - static_cast<std::uint64_t>(parity) * half;
  std::vector<Vertex> result(dim_);
  for (Vertex t = dim_; t-- > 0;) {
    result[t] = static_cast<Vertex>(index % k_) * 2 + parity;
    index /= k_;
  }
  return result;
}

Vertex DiagonalTorus::expected_distance(Vertex u, Vertex v) const {
  const std::vector<Vertex> cu = coords(u);
  const std::vector<Vertex> cv = coords(v);
  Vertex dist = 0;
  for (Vertex t = 0; t < dim_; ++t) {
    const Vertex diff = cu[t] > cv[t] ? cu[t] - cv[t] : cv[t] - cu[t];
    dist = std::max(dist, std::min(diff, 2 * k_ - diff));
  }
  return dist;
}

DiagonalTorus rotated_torus(Vertex k) { return DiagonalTorus(2, k); }

Graph broom_graph(Vertex num_paths, Vertex path_len, Vertex cluster) {
  BNCG_REQUIRE(num_paths >= 2, "broom needs at least two rays");
  BNCG_REQUIRE(cluster >= 1, "broom needs at least one leaf per ray");
  Graph g(1 + num_paths * (path_len + cluster));
  Vertex next = 1;
  for (Vertex ray = 0; ray < num_paths; ++ray) {
    Vertex anchor = 0;  // hub
    for (Vertex step = 0; step < path_len; ++step) {
      g.add_edge(anchor, next);
      anchor = next++;
    }
    for (Vertex leaf = 0; leaf < cluster; ++leaf) {
      g.add_edge(anchor, next++);
    }
  }
  return g;
}

}  // namespace bncg
