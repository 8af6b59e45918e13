#include "graph/row_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace bncg {

template <typename Dist>
void RowCache<Dist>::configure(Vertex n, std::uint64_t budget_bytes) {
  if (max_blocks_ != 0 && n == n_ && budget_bytes == budget_) return;
  Vertex block_rows = 64;
  std::size_t max_blocks = 2;
  const std::uint64_t row_bytes = std::uint64_t{n} * sizeof(Dist);
  // A degenerate n = 0 instance has empty rows, and any budget works.
  if (row_bytes != 0) {
    // One bit-parallel batch per block when the budget allows; shrink the
    // block (never below one row) before shrinking the two-block floor that
    // the pointer-stability guarantee rests on.
    if (2 * std::uint64_t{block_rows} * row_bytes > budget_bytes) {
      block_rows = static_cast<Vertex>(budget_bytes / (2 * row_bytes));
    }
    if (block_rows == 0) {
      throw std::invalid_argument(
          "row cache budget too small: needs at least two single-row blocks (" +
          std::to_string(2 * row_bytes) + " bytes at n = " + std::to_string(n) + ")");
    }
    max_blocks = std::max<std::size_t>(
        2, static_cast<std::size_t>(budget_bytes / (std::uint64_t{block_rows} * row_bytes)));
  }
  n_ = n;
  budget_ = budget_bytes;
  block_rows_ = block_rows;
  max_blocks_ = max_blocks;
  blocks_.clear();
  clock_ = 0;
  epoch_ = 0;
  slot_block_.assign(n, 0);
  slot_index_.assign(n, 0);
  stamp_.assign(n, 0);
  csr_ = nullptr;
}

template <typename Dist>
void RowCache<Dist>::begin_context(const CsrGraph& g, Dist inf_value, Dist max_finite) {
  BNCG_REQUIRE(g.num_vertices() == n_, "row cache configured for a different instance size");
  BNCG_REQUIRE(max_finite < inf_value, "max_finite must stay below inf_value");
  csr_ = &g;
  inf_value_ = inf_value;
  max_finite_ = max_finite;
  ++epoch_;
  for (Block& b : blocks_) b.used = 0;  // storage kept, residency dropped
  ++stats_.contexts;
}

template <typename Dist>
std::size_t RowCache<Dist>::writable_block() {
  // Current fill block: the most recently touched block with a free slot.
  std::size_t fill = blocks_.size();
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].used < block_rows_ &&
        (fill == blocks_.size() || blocks_[b].last_touch > blocks_[fill].last_touch)) {
      fill = b;
    }
  }
  if (fill != blocks_.size()) return fill;

  if (blocks_.size() < max_blocks_) {
    blocks_.emplace_back();
    Block& b = blocks_.back();
    b.data.resize(static_cast<std::size_t>(block_rows_) * n_);
    b.owners.assign(block_rows_, kNoVertex);
    const std::uint64_t bytes =
        blocks_.size() * std::uint64_t{block_rows_} * n_ * sizeof(Dist);
    stats_.peak_bytes = std::max(stats_.peak_bytes, bytes);
    return blocks_.size() - 1;
  }

  // All blocks full: recycle the least-recently-touched one. With ≥ 2
  // blocks this is never the block of the last returned row pointer.
  std::size_t victim = 0;
  for (std::size_t b = 1; b < blocks_.size(); ++b) {
    if (blocks_[b].last_touch < blocks_[victim].last_touch) victim = b;
  }
  Block& v = blocks_[victim];
  if (v.used > 0) ++stats_.evictions;
  for (Vertex s = 0; s < v.used; ++s) {
    const Vertex owner = v.owners[s];
    if (owner != kNoVertex && stamp_[owner] == epoch_ &&
        slot_block_[owner] == static_cast<std::uint32_t>(victim)) {
      stamp_[owner] = 0;  // drop from the index; storage is recycled below
    }
  }
  v.used = 0;
  return victim;
}

template <typename Dist>
bool RowCache<Dist>::fill_batch(std::span<const Vertex> sources, BatchBfsWorkspace& ws) {
  BNCG_REQUIRE(csr_ != nullptr, "row cache used before begin_context");
  std::size_t done = 0;
  while (done < sources.size()) {
    const std::size_t block_id = writable_block();
    Block& block = blocks_[block_id];
    const std::size_t chunk = std::min<std::size_t>(
        {sources.size() - done, static_cast<std::size_t>(block_rows_ - block.used), 64});
    const std::span<const Vertex> group = sources.subspan(done, chunk);
    Dist* base = block.data.data() + static_cast<std::size_t>(block.used) * n_;
    if (!bfs_batch_capped<Dist>(*csr_, group, MaskedEdge{}, base, n_, ws, kNoVertex,
                                inf_value_, max_finite_)) {
      return false;  // saturated: rows unspecified, nothing registered
    }
    for (std::size_t i = 0; i < chunk; ++i) {
      const Vertex src = group[i];
      const std::uint32_t slot = block.used + static_cast<std::uint32_t>(i);
      block.owners[slot] = src;
      slot_block_[src] = static_cast<std::uint32_t>(block_id);
      slot_index_[src] = slot;
      stamp_[src] = epoch_;
    }
    block.used += static_cast<Vertex>(chunk);
    stats_.misses += chunk;
    touch(block_id);
    done += chunk;
  }
  return true;
}

template <typename Dist>
const Dist* RowCache<Dist>::row(Vertex source, BatchBfsWorkspace& ws) {
  BNCG_REQUIRE(source < n_, "vertex id out of range");
  if (stamp_[source] == epoch_ && epoch_ != 0) {
    ++stats_.hits;
    const std::size_t b = slot_block_[source];
    touch(b);
    return blocks_[b].data.data() + static_cast<std::size_t>(slot_index_[source]) * n_;
  }
  const Vertex one[1] = {source};
  if (!fill_batch(std::span<const Vertex>(one, 1), ws)) return nullptr;
  const std::size_t b = slot_block_[source];
  return blocks_[b].data.data() + static_cast<std::size_t>(slot_index_[source]) * n_;
}

template <typename Dist>
bool RowCache<Dist>::prefetch(std::span<const Vertex> sources, BatchBfsWorkspace& ws) {
  missing_.clear();
  for (const Vertex s : sources) {
    BNCG_REQUIRE(s < n_, "vertex id out of range");
    if (stamp_[s] != epoch_ || epoch_ == 0) missing_.push_back(s);
  }
  if (missing_.empty()) return true;
  return fill_batch(missing_, ws);
}

template <typename Dist>
bool RowCache<Dist>::resident(Vertex source) const {
  return source < n_ && epoch_ != 0 && stamp_[source] == epoch_;
}

template <typename Dist>
std::vector<Vertex> RowCache<Dist>::resident_sources() const {
  std::vector<Vertex> out;
  for (const Block& b : blocks_) {
    for (Vertex s = 0; s < b.used; ++s) {
      const Vertex owner = b.owners[s];
      if (owner != kNoVertex && stamp_[owner] == epoch_ && epoch_ != 0) out.push_back(owner);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

template class RowCache<std::uint8_t>;
template class RowCache<std::uint16_t>;

}  // namespace bncg
