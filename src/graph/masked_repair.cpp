#include "graph/masked_repair.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>

#include "graph/bfs_batch.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace bncg {

namespace {

constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();

}  // namespace

template <typename Dist>
bool build_unmasked_slab(const CsrGraph& g, Dist* rows, Dist inf_value, Dist max_finite) {
  const Vertex n = g.num_vertices();
  if (n == 0) return true;
  ThreadPool& pool = ThreadPool::global();
  std::vector<BatchBfsWorkspace> ws(pool.size());
  std::atomic<bool> fits{true};
  pool.parallel_for((n + 63) / 64, /*grain=*/1, [&](std::uint64_t b, unsigned tid) {
    if (!fits.load(std::memory_order_relaxed)) return;
    const Vertex base = static_cast<Vertex>(b) * 64;
    const Vertex count = std::min<Vertex>(64, n - base);
    Vertex sources[64];
    for (Vertex i = 0; i < count; ++i) sources[i] = base + i;
    if (!bfs_batch_capped<Dist>(g, std::span<const Vertex>(sources, count), MaskedEdge{},
                                rows + static_cast<std::size_t>(base) * n, n, ws[tid],
                                kNoVertex, inf_value, max_finite)) {
      fits.store(false, std::memory_order_relaxed);
    }
  });
  return fits.load(std::memory_order_relaxed);
}

template bool build_unmasked_slab<std::uint8_t>(const CsrGraph&, std::uint8_t*, std::uint8_t,
                                                std::uint8_t);
template bool build_unmasked_slab<std::uint16_t>(const CsrGraph&, std::uint16_t*, std::uint16_t,
                                                 std::uint16_t);

template <typename Dist>
void MaskedRowRepair<Dist>::next_epoch() {
  if (++epoch_ != 0) return;
  std::fill(lost_mark_.begin(), lost_mark_.end(), 0);
  std::fill(seen_mark_.begin(), seen_mark_.end(), 0);
  std::fill(done_mark_.begin(), done_mark_.end(), 0);
  epoch_ = 1;
}

template <typename Dist>
void MaskedRowRepair<Dist>::begin(const CsrGraph& g, Vertex v, Dist inf, Dist max_finite) {
  g_ = &g;
  v_ = v;
  inf_ = inf;
  max_finite_ = max_finite;
  affected_rows_ = 0;
  patches_.clear();
  if (n_ != g.num_vertices() || offsets_.size() != n_) {
    n_ = g.num_vertices();
    offsets_.assign(n_, {kUnrepaired, kUnrepaired});
    lost_mark_.assign(n_, 0);
    seen_mark_.assign(n_, 0);
    done_mark_.assign(n_, 0);
    dist_.resize(n_);
    epoch_ = 0;
  } else {
    for (const Vertex x : repaired_) offsets_[x].first = kUnrepaired;
  }
  repaired_.clear();
}

template <typename Dist>
std::optional<std::span<const MaskedPatch<Dist>>> MaskedRowRepair<Dist>::repair(Vertex x,
                                                                              const Dist* row) {
  if (x == v_) return std::span<const Patch>{};
  auto& span = offsets_[x];
  if (span.first == kUnrepaired) {
    // Affected test: x is affected through neighbor c iff c is a child of v
    // in x's BFS DAG and no other neighbor of c sits at v's level — entries
    // d(x, v), d(x, c) and d(x, c′) of row x. Unreachable x never pass
    // (∞ ≠ ∞ + 1 in uint32).
    const CsrGraph& g = *g_;
    const std::uint32_t level = row[v_];
    seeds_.clear();
    for (const Vertex c : g.neighbors(v_)) {
      if (std::uint32_t{row[c]} != level + 1) continue;
      bool only_parent = true;
      for (const Vertex other : g.neighbors(c)) {
        if (other != v_ && std::uint32_t{row[other]} == level) {
          only_parent = false;
          break;
        }
      }
      if (only_parent) seeds_.push_back(c);
    }
    const auto first = static_cast<std::uint32_t>(patches_.size());
    if (!seeds_.empty()) {
      if (!repair_row(row, seeds_)) {
        patches_.resize(first);
        return std::nullopt;
      }
      ++affected_rows_;
      peak_bytes_ = std::max(peak_bytes_, patches_.capacity() * sizeof(Patch));
    }
    span = {first, static_cast<std::uint32_t>(patches_.size())};
    repaired_.push_back(x);
    ++repaired_total_;
  }
  return std::span<const Patch>(patches_.data() + span.first, span.second - span.first);
}

template <typename Dist>
bool MaskedRowRepair<Dist>::repair_row(const Dist* dx, std::span<const Vertex> seeds) {
  const CsrGraph& g = *g_;
  next_epoch();

  // Lost set, level by level. When u (level ℓ) is popped, every vertex at
  // levels ℓ − 1 … ℓ + 1 around it has its final status: levels ≤ ℓ were
  // decided while earlier levels were popped, and each child is decided the
  // first time a lost parent sees it (its parents, at level ℓ, are final).
  // So the same neighbor sweep also takes u's boundary key: 1 + the
  // unmasked (= masked) distance of its nearest neighbor outside the lost
  // set. v counts as lost here — it is never a child, and it must never
  // serve as a boundary.
  lost_.clear();
  keyed_.clear();
  lost_mark_[v_] = epoch_;
  for (const Vertex c : seeds) {
    lost_mark_[c] = epoch_;
    seen_mark_[c] = epoch_;
    lost_.push_back(c);
  }
  for (std::size_t i = 0; i < lost_.size(); ++i) {
    const Vertex u = lost_[i];
    const std::uint32_t level = dx[u];
    std::uint32_t key = kUnreached;
    for (const Vertex w : g.neighbors(u)) {
      const std::uint32_t dw = dx[w];
      if (dw == level + 1 && seen_mark_[w] != epoch_) {
        seen_mark_[w] = epoch_;
        bool orphaned = true;
        for (const Vertex p : g.neighbors(w)) {
          if (std::uint32_t{dx[p]} == level && lost_mark_[p] != epoch_) {
            orphaned = false;
            break;
          }
        }
        if (orphaned) {
          lost_mark_[w] = epoch_;
          lost_.push_back(w);
        }
      }
      if (lost_mark_[w] != epoch_) key = std::min(key, dw + 1);
    }
    dist_[u] = key;
    if (key != kUnreached) keyed_.emplace_back(key, u);
  }

  resettle();

  for (const Vertex u : lost_) {
    const std::uint32_t d = dist_[u];
    if (d == kUnreached) {
      patches_.push_back({u, inf_});
      continue;
    }
    if (d > max_finite_) return false;
    patches_.push_back({u, static_cast<Dist>(d)});
  }
  return true;
}

template <typename Dist>
void MaskedRowRepair<Dist>::resettle() {
  const CsrGraph& g = *g_;
  // Distances propagate from the boundary keys. Entries are merged in key
  // order with the FIFO of relaxed vertices, whose keys never decrease — a
  // BFS with staggered start times; the order among equal keys changes no
  // distance. Keys are distances spanning a narrow range, so they sort by
  // counting.
  if (keyed_.size() > 1) {
    const auto [lo, hi] = std::minmax_element(keyed_.begin(), keyed_.end());
    const std::uint32_t base = lo->first;
    const std::size_t range = std::size_t{hi->first} - base + 1;
    if (range > 4 * keyed_.size()) {
      std::sort(keyed_.begin(), keyed_.end());
    } else {
      key_start_.assign(range + 1, 0);
      for (const auto& item : keyed_) ++key_start_[item.first - base + 1];
      for (std::size_t k = 1; k <= range; ++k) key_start_[k] += key_start_[k - 1];
      sorted_.resize(keyed_.size());
      for (const auto& item : keyed_) sorted_[key_start_[item.first - base]++] = item;
      keyed_.swap(sorted_);
    }
  }
  queue_.clear();
  std::size_t head = 0;
  std::size_t next = 0;
  while (true) {
    Vertex u = 0;
    if (head < queue_.size() &&
        (next == keyed_.size() || dist_[queue_[head]] <= keyed_[next].first)) {
      u = queue_[head++];
    } else if (next < keyed_.size()) {
      u = keyed_[next++].second;
    } else {
      break;
    }
    if (done_mark_[u] == epoch_) continue;
    done_mark_[u] = epoch_;
    const std::uint32_t du = dist_[u];
    for (const Vertex w : g.neighbors(u)) {
      if (lost_mark_[w] != epoch_ || w == v_ || done_mark_[w] == epoch_ || du + 1 >= dist_[w]) {
        continue;
      }
      dist_[w] = du + 1;
      queue_.push_back(w);
    }
  }
}

template <typename Dist>
bool MaskedRowRepair<Dist>::settle_second_min(const Dist* min1, Dist* min2,
                                              const Vertex* argmin) {
  // The hard vertices are the columns where min2 − min1 = 2 (DESIGN.md §3);
  // with one neighbor min2 is ∞ in both folds.
  const CsrGraph& g = *g_;
  if (g.degree(v_) < 2) return true;
  lost_.resize(n_);
  lost_.resize(simd::kernels<Dist>().collect_absdiff_gt1(min1, min2, n_, lost_.data()));
  next_epoch();
  lost_mark_[v_] = epoch_;
  for (const Vertex u : lost_) lost_mark_[u] = epoch_;
  // No two hard vertices of different first-hop regions are adjacent, so
  // the region of argmin w re-settles from the exact entries M^w_y around
  // it: min2[y] where argmin[y] = w, else min1[y].
  keyed_.clear();
  for (const Vertex u : lost_) {
    std::uint32_t key = kUnreached;
    for (const Vertex y : g.neighbors(u)) {
      if (lost_mark_[y] == epoch_) continue;
      key = std::min<std::uint32_t>(key, (argmin[y] == argmin[u] ? min2[y] : min1[y]) + 1u);
    }
    dist_[u] = key;
    if (key != kUnreached) keyed_.emplace_back(key, u);
  }
  resettle();
  for (const Vertex u : lost_) {
    const std::uint32_t d = dist_[u];
    if (d != kUnreached && d > max_finite_) return false;
    min2[u] = d == kUnreached ? inf_ : static_cast<Dist>(d);
  }
  return true;
}

template <typename Dist>
bool MaskedRowRepair<Dist>::materialize(Vertex x, const Dist* row, Dist* out) {
  const auto patches = repair(x, row);
  if (!patches) return false;
  std::memcpy(out, row, std::size_t{n_} * sizeof(Dist));
  for (const Patch& p : *patches) out[p.u] = p.d;
  out[v_] = inf_;
  return true;
}

template class MaskedRowRepair<std::uint8_t>;
template class MaskedRowRepair<std::uint16_t>;

}  // namespace bncg
