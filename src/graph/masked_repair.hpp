// Masked rows by repair: the distances of G − v as sparse patches over the
// unmasked rows of G (DESIGN.md §17).
//
// Every agent scan of the swap engine needs d_{G−v}(x, ·) for every x ≠ v
// (the source-removal identity, DESIGN.md §3). Recomputing the whole masked
// matrix per agent is a full batched APSP, yet removing one vertex changes
// only a tiny fraction of the entries — the pairs all of whose shortest
// paths run through v. MaskedRowRepair computes exactly those entries of
// row x from the unmasked row d(x, ·) alone:
//
//  * Affected rows. Row x changes iff some neighbor c of v is a child of v
//    in x's BFS DAG (d(x,c) = d(x,v) + 1) whose only parent is v (no
//    c′ ∈ N(c)∖{v} with d(x,c′) = d(x,v)). Every distance the test reads
//    is an entry of row x.
//  * Lost set. In an affected row, the vertices whose every shortest path
//    from x runs through v are v's descendants in x's BFS DAG with no parent
//    outside lost ∪ {v}; a level-ordered walk from the seeds above finds
//    them, checking each candidate's parents once.
//  * Re-settling. Lost vertices are re-settled from the boundary — each
//    starts at 1 + min over its non-lost neighbors of the unmasked distance
//    — by a BFS with staggered start times inside the lost set; unreachable
//    ones become ∞.
//
// Every other entry of row x keeps its unmasked value, so (unmasked row x) +
// (patches of row x) with entry v set to ∞ is row x of the masked matrix,
// and every patch strictly lengthens its entry. The patch set holds
// O(changed entries) — the scans read candidate rows unmasked, from the
// shared slab or the row cache, and correct their combines by the patches
// alone.
//
// Rows are repaired on demand: begin() starts an agent with no row repaired,
// and repair(x, row) runs the three steps above for row x alone, once per
// agent. A scan repairs only the candidate rows its unmasked lower bound
// cannot rule out (DESIGN.md §17); settle_second_min() runs the same
// re-settling over the unmasked neighbor fold's hard vertices (§3).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace bncg {

/// Unmasked capped all-pairs shortest paths of `g` into the n×n row-major
/// slab `rows`, one ≤ 64-source batch per pool task (lanes write disjoint
/// row blocks). Returns false — contents unspecified — when some finite
/// distance exceeds `max_finite`. Issued from inside a pool task it runs
/// inline on the calling lane. Instantiated for u8 and u16.
template <typename Dist>
[[nodiscard]] bool build_unmasked_slab(const CsrGraph& g, Dist* rows, Dist inf_value,
                                       Dist max_finite);

/// One changed entry of a masked row: column `u` now holds `d` (the width's
/// infinity sentinel when u is cut off from the row's source).
template <typename Dist>
struct MaskedPatch {
  Vertex u = 0;
  Dist d = 0;
};

/// Per-lane repair state of one masked vertex at storage width `Dist`.
/// Reusable across agents; allocation-free once warm.
template <typename Dist>
class MaskedRowRepair {
 public:
  using Patch = MaskedPatch<Dist>;

  /// Starts the masked vertex `v` of `g` (`inf` for unreachable). No row is
  /// repaired yet, and nothing of the previous agent stays readable.
  void begin(const CsrGraph& g, Vertex v, Dist inf, Dist max_finite);

  /// Repairs row x of G − v on first call per agent and returns its changed
  /// entries (empty for unaffected rows and for x = v); later calls return
  /// the same patches. `row` is the unmasked row d(x, ·), read on the first
  /// call only. nullopt when a repaired finite distance exceeds
  /// `max_finite` (the caller redoes the agent wider). The span stays valid
  /// until the next repair call.
  [[nodiscard]] std::optional<std::span<const Patch>> repair(Vertex x, const Dist* row);

  /// Turns the fold of v's unmasked neighbor rows (min1, min2, argmin by
  /// scan_min_update in neighbor order) into the fold of the rows of G − v
  /// by re-settling min2 at the hard vertices (DESIGN.md §3); column v is
  /// not read. False when a re-settled finite entry exceeds `max_finite`.
  [[nodiscard]] bool settle_second_min(const Dist* min1, Dist* min2, const Vertex* argmin);

  /// Row x of the masked matrix: the unmasked row `row`, its patches, and
  /// [v] = ∞. Repairs the row first; false on saturation.
  [[nodiscard]] bool materialize(Vertex x, const Dist* row, Dist* out);

  /// Rows repaired since begin(), in repair order.
  [[nodiscard]] std::span<const Vertex> agent_rows() const noexcept { return repaired_; }
  /// Rows repaired since construction, over every agent.
  [[nodiscard]] std::uint64_t repaired_rows() const noexcept { return repaired_total_; }
  /// Rows with at least one changed entry, among those repaired since begin().
  [[nodiscard]] std::uint32_t affected_rows() const noexcept { return affected_rows_; }
  /// Changed entries (ordered pairs) of the rows repaired since begin().
  [[nodiscard]] std::size_t changed_entries() const noexcept { return patches_.size(); }
  /// High-water mark of the patch storage in bytes since construction.
  [[nodiscard]] std::size_t peak_patch_bytes() const noexcept { return peak_bytes_; }

 private:
  static constexpr std::uint32_t kUnrepaired = ~std::uint32_t{0};

  /// Lost set of the unmasked row `dx` from its seeds, re-settled into
  /// patches_.
  [[nodiscard]] bool repair_row(const Dist* dx, std::span<const Vertex> seeds);
  /// Staggered-start BFS inside the lost set (lost_mark_, v excluded) from
  /// keyed_ (key, vertex); dist_ holds each lost vertex's key or kUnreached.
  void resettle();
  void next_epoch();

  const CsrGraph* g_ = nullptr;
  Vertex n_ = 0;
  Vertex v_ = kNoVertex;
  Dist inf_ = 0;
  Dist max_finite_ = 0;
  std::uint32_t affected_rows_ = 0;
  std::uint64_t repaired_total_ = 0;
  std::size_t peak_bytes_ = 0;

  std::vector<Patch> patches_;
  // Row x owns [first, second) of patches_ once repaired for the current
  // agent; first == kUnrepaired until then.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> offsets_;
  std::vector<Vertex> repaired_;                // rows repaired since begin(), in order
  std::vector<Vertex> seeds_;                   // lost neighbors of v in one row
  std::vector<Vertex> lost_;                    // lost set (level order) or hard set
  std::vector<std::pair<std::uint32_t, Vertex>> keyed_;  // (boundary key, lost vertex)
  std::vector<std::pair<std::uint32_t, Vertex>> sorted_;  // keyed_ by counting sort
  std::vector<std::uint32_t> key_start_;                  // counting sort's bucket starts
  std::vector<Vertex> queue_;
  std::vector<std::uint32_t> lost_mark_;        // == epoch_: lost in the current row
  std::vector<std::uint32_t> seen_mark_;        // == epoch_: parents already checked
  std::vector<std::uint32_t> done_mark_;        // == epoch_: re-settled
  std::vector<std::uint32_t> dist_;             // tentative masked distance
  std::uint32_t epoch_ = 0;
};

extern template class MaskedRowRepair<std::uint8_t>;
extern template class MaskedRowRepair<std::uint16_t>;

}  // namespace bncg
