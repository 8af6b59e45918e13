// All-pairs shortest paths via n parallel BFS traversals.
//
// The distance matrix backs the analysis modules (metrics, distance
// uniformity) where every pairwise distance is needed at once. Storage is a
// flat 64-byte-aligned n×n array of 32-bit distances; computation runs on
// the process thread pool with one workspace per lane.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "util/simd.hpp"

namespace bncg {

/// Dense all-pairs distance matrix (kInfDist for unreachable pairs).
class DistanceMatrix {
 public:
  DistanceMatrix() = default;

  /// Computes all-pairs distances of `g` (n BFS runs, parallel over the
  /// process thread pool).
  explicit DistanceMatrix(const Graph& g);

  /// Number of vertices the matrix covers.
  [[nodiscard]] Vertex size() const noexcept { return n_; }

  /// d(u, v); kInfDist when unreachable.
  [[nodiscard]] Vertex at(Vertex u, Vertex v) const {
    BNCG_REQUIRE(u < n_ && v < n_, "vertex id out of range");
    return data_[static_cast<std::size_t>(u) * n_ + v];
  }

  /// Distance row of vertex `u` (view).
  [[nodiscard]] std::span<const Vertex> row(Vertex u) const {
    BNCG_REQUIRE(u < n_, "vertex id out of range");
    return {data_.data() + static_cast<std::size_t>(u) * n_, n_};
  }

  /// True iff every pair is reachable.
  [[nodiscard]] bool connected() const noexcept { return connected_; }

  /// Eccentricity of `u` (max entry of its row).
  [[nodiscard]] Vertex eccentricity(Vertex u) const;

  /// Σ_v d(u, v); only meaningful when connected().
  [[nodiscard]] std::uint64_t row_sum(Vertex u) const;

  /// Largest finite distance in the matrix (0 for n ≤ 1). The input to
  /// WidthAndBudgetPolicy::width_for_max_distance (core/dist_provider.hpp)
  /// for callers that already paid for a full matrix.
  [[nodiscard]] Vertex max_finite_distance() const noexcept;

 private:
  Vertex n_ = 0;
  bool connected_ = true;
  AlignedVec<Vertex> data_;
};

}  // namespace bncg
