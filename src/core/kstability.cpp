#include "core/kstability.hpp"

#include <algorithm>
#include <map>

#include "core/swap_engine.hpp"

namespace bncg {

namespace {

constexpr std::size_t words_for(Vertex bits) { return (static_cast<std::size_t>(bits) + 63) / 64; }

bool get_bit(const std::vector<std::uint64_t>& mask, Vertex i) {
  return (mask[i / 64] >> (i % 64)) & 1;
}

void set_bit(std::vector<std::uint64_t>& mask, Vertex i) { mask[i / 64] |= std::uint64_t{1} << (i % 64); }

/// Branch-and-bound exact cover search. Returns true when `remaining` more
/// sets suffice to cover everything not yet in `covered`; appends the chosen
/// candidate indices to `selection`.
bool cover_search(Vertex universe, const std::vector<std::vector<std::uint64_t>>& sets,
                  std::vector<std::uint64_t>& covered, Vertex remaining,
                  std::vector<std::size_t>& selection) {
  // Most-constrained-element branching: find the uncovered element with the
  // fewest covering candidates.
  Vertex best_element = universe;
  std::size_t best_count = sets.size() + 1;
  for (Vertex e = 0; e < universe; ++e) {
    if (get_bit(covered, e)) continue;
    std::size_t count = 0;
    for (const auto& s : sets) {
      if (get_bit(s, e)) ++count;
    }
    if (count < best_count) {
      best_count = count;
      best_element = e;
      if (count == 0) return false;  // uncoverable element
    }
  }
  if (best_element == universe) return true;  // everything covered
  if (remaining == 0) return false;

  // Try candidates covering the chosen element, largest coverage first.
  std::vector<std::size_t> order;
  for (std::size_t c = 0; c < sets.size(); ++c) {
    if (get_bit(sets[c], best_element)) order.push_back(c);
  }
  const auto popcount = [&](std::size_t c) {
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < sets[c].size(); ++w) {
      total += static_cast<std::uint64_t>(__builtin_popcountll(sets[c][w] & ~covered[w]));
    }
    return total;
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return popcount(a) > popcount(b); });

  for (const std::size_t c : order) {
    std::vector<std::uint64_t> saved = covered;
    for (std::size_t w = 0; w < covered.size(); ++w) covered[w] |= sets[c][w];
    selection.push_back(c);
    if (cover_search(universe, sets, covered, remaining - 1, selection)) return true;
    selection.pop_back();
    covered = std::move(saved);
  }
  return false;
}

}  // namespace

std::optional<std::vector<std::size_t>> cover_select(
    Vertex universe, const std::vector<std::vector<std::uint64_t>>& sets, Vertex budget) {
  std::vector<std::uint64_t> covered(words_for(universe), 0);
  std::vector<std::size_t> selection;
  if (!cover_search(universe, sets, covered, budget, selection)) return std::nullopt;
  return selection;
}

std::optional<Vertex> min_cover_size(Vertex universe,
                                     const std::vector<std::vector<std::uint64_t>>& candidates,
                                     Vertex depth_cap) {
  if (universe == 0) return 0;
  for (Vertex k = 1; k <= depth_cap; ++k) {
    std::vector<std::uint64_t> covered(words_for(universe), 0);
    std::vector<std::size_t> selection;
    if (cover_search(universe, candidates, covered, k, selection)) {
      return static_cast<Vertex>(selection.size());
    }
  }
  return std::nullopt;
}

KStabilityReport insertion_stability_at(const DistanceMatrix& dm, Vertex v, Vertex k) {
  BNCG_REQUIRE(dm.connected(), "k-stability analysis requires a connected graph");
  BNCG_REQUIRE(v < dm.size(), "vertex id out of range");
  KStabilityReport report;
  report.witness_vertex = v;
  const Vertex n = dm.size();
  const auto dv = dm.row(v);
  const Vertex ecc = dm.eccentricity(v);
  if (ecc <= 1 || k == 0) return report;  // adjacent to everyone, or no moves

  // Far sphere F and its index mapping.
  std::vector<Vertex> far;
  for (Vertex x = 0; x < n; ++x) {
    if (dv[x] == ecc) far.push_back(x);
  }
  const Vertex universe = static_cast<Vertex>(far.size());
  const std::size_t words = words_for(universe);

  // Candidate coverage masks. Neighbors of v and v itself end up with empty
  // coverage automatically (see header) and are dropped. Identical masks are
  // deduplicated keeping one representative label.
  std::vector<std::vector<std::uint64_t>> sets;
  std::vector<Vertex> labels;
  std::map<std::vector<std::uint64_t>, bool> seen;
  for (Vertex w = 0; w < n; ++w) {
    if (w == v) continue;
    const auto dw = dm.row(w);
    std::vector<std::uint64_t> mask(words, 0);
    bool nonempty = false;
    for (Vertex idx = 0; idx < universe; ++idx) {
      if (dw[far[idx]] + 2 <= ecc) {
        set_bit(mask, idx);
        nonempty = true;
      }
    }
    if (!nonempty) continue;
    if (auto [it, inserted] = seen.emplace(mask, true); !inserted) continue;
    sets.push_back(std::move(mask));
    labels.push_back(w);
  }

  std::vector<std::uint64_t> covered(words, 0);
  std::vector<std::size_t> selection;
  if (cover_search(universe, sets, covered, k, selection)) {
    report.stable = false;
    for (const std::size_t c : selection) report.witness_endpoints.push_back(labels[c]);
  }
  return report;
}

Vertex max_tolerated_insertions(const DistanceMatrix& dm, Vertex v, Vertex k_max) {
  for (Vertex k = 1; k <= k_max; ++k) {
    if (!insertion_stability_at(dm, v, k).stable) return k - 1;
  }
  return k_max;
}

// ------------------------------------------------------------ naive oracles
//
// The original full-recompute decision procedures, now the BNCG_FORCE_NAIVE
// tier: each call pays fresh all-pairs BFS (one DistanceMatrix per decision;
// one per deletion subset for swaps). The engine paths below must reproduce
// these byte for byte — same far-set order, same mask conditions, same
// dedup, same cover_search — so verdicts AND witnesses agree.

namespace naive {

KStabilityReport insertion_stability_at(const Graph& g, Vertex v, Vertex k) {
  const DistanceMatrix dm(g);
  return bncg::insertion_stability_at(dm, v, k);
}

KStabilityReport insertion_stability(const Graph& g, Vertex k) {
  const DistanceMatrix dm(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    KStabilityReport report = bncg::insertion_stability_at(dm, v, k);
    if (!report.stable) return report;
  }
  return {};
}

Vertex max_tolerated_insertions(const Graph& g, Vertex v, Vertex k_max) {
  const DistanceMatrix dm(g);
  return bncg::max_tolerated_insertions(dm, v, k_max);
}

KStabilityReport swap_stability_at(const Graph& g, Vertex v, Vertex k) {
  g.check_vertex(v);
  BNCG_REQUIRE(is_connected(g), "swap-stability analysis requires a connected graph");
  KStabilityReport report;
  report.witness_vertex = v;
  const Vertex n = g.num_vertices();
  const Vertex old_ecc = eccentricity(g, v);
  if (old_ecc <= 1 || k == 0) return report;

  const std::vector<Vertex> nbrs(g.neighbors(v).begin(), g.neighbors(v).end());
  const Vertex deg = static_cast<Vertex>(nbrs.size());
  const Vertex j_max = std::min<Vertex>(k, deg);

  // Enumerate deletion subsets D (|D| = j) by bitmask over v's neighbors.
  Graph work = g;
  for (Vertex j = 1; j <= j_max; ++j) {
    for (std::uint32_t mask = 0; mask < (1u << deg); ++mask) {
      if (static_cast<Vertex>(__builtin_popcount(mask)) != j) continue;
      std::vector<Vertex> deleted;
      for (Vertex i = 0; i < deg; ++i) {
        if (mask & (1u << i)) {
          deleted.push_back(nbrs[i]);
          work.remove_edge(v, nbrs[i]);
        }
      }
      // Distances in H = G − D; the j inserted edges then act like pure
      // insertions in H, so the decision is again exact set cover: the far
      // set is everything at distance ≥ old_ecc from v in H (deletions may
      // have pushed vertices out, including to ∞).
      const DistanceMatrix dm(work);
      const auto dv = dm.row(v);
      std::vector<Vertex> far;
      for (Vertex x = 0; x < n; ++x) {
        if (dv[x] >= old_ecc) far.push_back(x);  // kInfDist included
      }
      const Vertex universe = static_cast<Vertex>(far.size());
      const std::size_t words = (static_cast<std::size_t>(universe) + 63) / 64;
      std::vector<std::vector<std::uint64_t>> sets;
      std::vector<Vertex> labels;
      for (Vertex w = 0; w < n; ++w) {
        if (w == v) continue;
        const auto dw = dm.row(w);
        std::vector<std::uint64_t> cover_mask(words, 0);
        bool nonempty = false;
        for (Vertex idx = 0; idx < universe; ++idx) {
          if (dw[far[idx]] != kInfDist && dw[far[idx]] + 2 <= old_ecc) {
            cover_mask[idx / 64] |= std::uint64_t{1} << (idx % 64);
            nonempty = true;
          }
        }
        if (!nonempty) continue;
        sets.push_back(std::move(cover_mask));
        labels.push_back(w);
      }
      std::vector<std::uint64_t> covered(words, 0);
      std::vector<std::size_t> selection;
      const bool coverable = cover_search(universe, sets, covered, j, selection);
      for (const Vertex w : deleted) work.add_edge(v, w);
      if (coverable) {
        report.stable = false;
        report.witness_deletions = deleted;
        for (const std::size_t c : selection) report.witness_endpoints.push_back(labels[c]);
        return report;
      }
    }
  }
  return report;
}

}  // namespace naive

// ------------------------------------------------------- routed entry points

KStabilityReport insertion_stability_at(const Graph& g, Vertex v, Vertex k) {
  if (force_naive_requested()) return naive::insertion_stability_at(g, v, k);
  SwapEngine engine(g);
  SwapEngine::Scratch scratch;
  return engine.insertion_stability_at(v, k, scratch);
}

KStabilityReport insertion_stability(const Graph& g, Vertex k) {
  if (force_naive_requested()) return naive::insertion_stability(g, k);
  return SwapEngine(g).insertion_stability(k);
}

Vertex max_tolerated_insertions(const Graph& g, Vertex v, Vertex k_max) {
  if (force_naive_requested()) return naive::max_tolerated_insertions(g, v, k_max);
  SwapEngine engine(g);
  SwapEngine::Scratch scratch;
  return engine.max_tolerated_insertions(v, k_max, scratch);
}

KStabilityReport swap_stability_at(const Graph& g, Vertex v, Vertex k) {
  if (force_naive_requested()) return naive::swap_stability_at(g, v, k);
  SwapEngine engine(g);
  SwapEngine::Scratch scratch;
  return engine.swap_stability_at(v, k, scratch);
}

}  // namespace bncg
