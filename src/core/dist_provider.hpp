// The width-and-budget policy — the one interface behind "at which width,
// and under what memory budget, does a scan get its distance rows".
//
// ResourceConfig holds the knobs every scan tier shares:
//
//   width      — the storage-width preference (graph/dist_width.hpp),
//   mem_budget — a byte budget for distance-row storage (0 = unlimited).
//
// The budget is read from this field and nowhere else; the CLI's
// --mem-budget sets it.
//
// WidthAndBudgetPolicy turns a ResourceConfig into the two decisions the
// scan tiers need: which width to prefer, and whether a dense n×n scan
// slab fits the per-lane budget share — when it does not, the scan runs in
// BUDGETED mode against the blocked row cache (graph/row_cache.hpp), where
// unmasked rows materialize on demand by exact BFS (DESIGN.md §16). Dense
// scans read the same rows from the engine's shared unmasked slab. Either
// way the scan repairs the masked rows it reads as sparse patches
// (graph/masked_repair.hpp, DESIGN.md §17), and its unmasked lower bound
// (sum) or far filter (max) rules out most candidates before their row is
// repaired. Both modes are exact; the differential suite
// (tests/test_row_cache.cpp) pins byte-parity.
#pragma once

#include <cstdint>
#include <string>

#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"
#include "graph/dist_width.hpp"

namespace bncg {

/// The shared resource knobs of every scan tier (engine, anneal, sharded
/// certifier, svc worker, facade) — the one place a width
/// preference or a memory budget is set.
struct ResourceConfig {
  /// Distance storage width preference; results are width-independent.
  WidthPolicy width = WidthPolicy::Auto;
  /// Byte budget for distance-row storage per process. 0 = unlimited:
  /// every tier keeps its dense fast path. The budget is shared evenly
  /// across scan lanes.
  std::uint64_t mem_budget = 0;
};

/// Parses a byte count with optional binary suffix: "1073741824", "512K",
/// "256M", "2G". Throws std::invalid_argument on anything else.
[[nodiscard]] std::uint64_t parse_mem_bytes(const std::string& text);

/// Whether a scan reads the shared dense slab or the budgeted row cache.
enum class RowStorage : std::uint8_t { Dense, Budgeted };

/// The resolved resource decisions of one instance: width preference and
/// dense-vs-budgeted storage per width. One policy object per engine
/// rebuild; cheap value type.
class WidthAndBudgetPolicy {
 public:
  WidthAndBudgetPolicy() = default;
  /// Splits config.mem_budget across `lanes` scan lanes (0 = the process
  /// thread-pool size). Every scan lane owns its own scratch,
  /// so the per-lane share is what a dense slab must fit into.
  explicit WidthAndBudgetPolicy(const ResourceConfig& config, unsigned lanes = 0);

  [[nodiscard]] std::uint64_t total_budget() const noexcept { return total_budget_; }
  /// Per-lane budget share (0 = unlimited).
  [[nodiscard]] std::uint64_t lane_budget() const noexcept { return lane_budget_; }

  /// Exact width for a known maximum finite distance: the narrowest width
  /// whose capped encoding stores it.
  [[nodiscard]] static DistWidth width_for_max_distance(std::uint64_t max_distance) noexcept {
    return max_distance <= kMaxFiniteFor<std::uint8_t> ? DistWidth::U8 : DistWidth::U16;
  }
  /// The width-preference probe of every scan tier: one BFS from vertex 0
  /// bounds the diameter by 2·ecc(0); u8 is preferred under
  /// the configured policy when that bound fits the narrow encoding.
  /// Masked per-agent sweeps can still exceed the bound — the per-agent
  /// u16 fallback absorbs those exactly. Works at any n (the traversal is
  /// saturation-checked, not 16-bit-limited).
  [[nodiscard]] bool probe_prefers_u8(const CsrGraph& csr, BatchBfsWorkspace& ws) const;

  /// True when an n×n slab at width `w` fits the per-lane budget (and the
  /// dense scan's 16-bit encoding limit n < 65535 holds). False selects
  /// RowStorage::Budgeted for that width. The dense scan's one shared slab
  /// needs no more than a lane's share, so this test is conservative.
  [[nodiscard]] bool dense_fits(Vertex n, DistWidth w) const noexcept;
  [[nodiscard]] RowStorage storage_for(Vertex n, DistWidth w) const noexcept {
    return dense_fits(n, w) ? RowStorage::Dense : RowStorage::Budgeted;
  }

 private:
  WidthPolicy width_ = WidthPolicy::Auto;
  std::uint64_t total_budget_ = 0;
  std::uint64_t lane_budget_ = 0;
};

}  // namespace bncg
