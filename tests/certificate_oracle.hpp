// Shared expected side of the certification differential tests: the
// bncg::naive certificate of any run the engine certifies, and one
// comparison of two certificates — verdict, moves_checked and the whole
// witness.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/equilibrium.hpp"
#include "graph/bfs.hpp"

namespace bncg {

/// The oracle's certificate of `g` under `model`: the naive per-agent best
/// scans (those the naive certifiers run) folded serially in agent order,
/// the earliest agent winning among equal cost_after, with one move per
/// candidate swap plus, under the max deletion clause, one per incident
/// edge. The fold is serial, so the oracle never hands work to the thread
/// pool at any lane count, and it covers max swaps without the deletion
/// clause, which the naive certifiers do not.
inline EquilibriumCertificate naive_certificate(const Graph& g, UsageCost model,
                                                bool include_deletions) {
  const bool deletions = model == UsageCost::Max && include_deletions;
  EquilibriumCertificate cert;
  BfsWorkspace ws;
  const Vertex n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t degree = g.degree(v);
    cert.moves_checked += degree * (n - 1 - degree) + (deletions ? degree : 0);
    const auto dev = model == UsageCost::Sum ? naive::best_sum_deviation(g, v, ws)
                                             : naive::best_max_deviation(g, v, ws, deletions);
    if (dev && (!cert.witness || dev->cost_after < cert.witness->cost_after)) cert.witness = dev;
  }
  cert.is_equilibrium = !cert.witness.has_value();
  return cert;
}

inline void expect_same_certificate(const EquilibriumCertificate& got,
                                    const EquilibriumCertificate& want,
                                    const std::string& context) {
  EXPECT_EQ(got.is_equilibrium, want.is_equilibrium) << context;
  EXPECT_EQ(got.moves_checked, want.moves_checked) << context;
  ASSERT_EQ(got.witness.has_value(), want.witness.has_value()) << context;
  if (!want.witness) return;
  EXPECT_EQ(got.witness->swap, want.witness->swap) << context;
  EXPECT_EQ(got.witness->cost_before, want.witness->cost_before) << context;
  EXPECT_EQ(got.witness->cost_after, want.witness->cost_after) << context;
  EXPECT_EQ(got.witness->kind, want.witness->kind) << context;
}

}  // namespace bncg
