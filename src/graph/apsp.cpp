#include "graph/apsp.hpp"

#include <algorithm>

#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"

namespace bncg {

DistanceMatrix::DistanceMatrix(const Graph& g)
    : n_(g.num_vertices()), data_(static_cast<std::size_t>(n_) * n_, kInfDist) {
  // One CSR snapshot + batched bit-parallel BFS (64 sources per sweep)
  // replaces the former n independent pointer-chasing traversals; the
  // batches run in parallel on the thread pool inside csr_apsp_wide.
  const CsrGraph csr(g);
  connected_ = csr_apsp_wide(csr, data_.data());
}

Vertex DistanceMatrix::eccentricity(Vertex u) const {
  const auto r = row(u);
  Vertex ecc = 0;
  for (const Vertex d : r) {
    if (d == kInfDist) return kInfDist;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint64_t DistanceMatrix::row_sum(Vertex u) const {
  const auto r = row(u);
  std::uint64_t sum = 0;
  for (const Vertex d : r) {
    if (d != kInfDist) sum += d;
  }
  return sum;
}

Vertex DistanceMatrix::max_finite_distance() const noexcept {
  Vertex max_d = 0;
  for (const Vertex d : data_) {
    if (d != kInfDist && d > max_d) max_d = d;
  }
  return max_d;
}

}  // namespace bncg
