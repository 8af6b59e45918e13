// Exhaustive differential sweep: every labeled connected graph on n ≤ 6
// vertices (1, 1, 4, 38, 728 and 26,704 of them) certified by
// certify_sharded — dense at ForceU8, dense at ForceU16, and budgeted at
// two single-row u16 blocks per lane — against the bncg::naive oracle, for
// sum, max and max with deletions. Verdict, witness and moves_checked must
// match byte for byte; a failure names the graph in graph6.
//
// The n = 6 sweep takes ~3.7 s on one lane and ~10 s on four, where each
// certification of a few agents still hands its shards to the pool, so
// CMakeLists pins it to BNCG_THREADS=1 and runs the n ≤ 5 sweep at 4 lanes.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/equilibrium.hpp"
#include "graph/bfs.hpp"
#include "graph/io.hpp"
#include "util/thread_pool.hpp"

namespace bncg {
namespace {

struct RunSpec {
  UsageCost model;
  bool include_deletions;
  const char* name;
};

constexpr RunSpec kRuns[] = {
    {UsageCost::Sum, false, "sum"},
    {UsageCost::Max, false, "max"},
    {UsageCost::Max, true, "max+del"},
};

/// The oracle's certificate. It certifies max with deletions; max swaps
/// alone fold the same way: the earliest agent among equal cost_after, one
/// move per candidate swap.
EquilibriumCertificate naive_certificate(const Graph& g, const RunSpec& run, BfsWorkspace& ws) {
  if (run.model == UsageCost::Sum) return naive::certify_sum_equilibrium(g);
  if (run.include_deletions) return naive::certify_max_equilibrium(g);
  EquilibriumCertificate cert;
  const Vertex n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    cert.moves_checked += std::uint64_t{g.degree(v)} * (n - 1 - g.degree(v));
    const auto dev = naive::best_max_deviation(g, v, ws);
    if (dev && (!cert.witness || dev->cost_after < cert.witness->cost_after)) cert.witness = dev;
  }
  cert.is_equilibrium = !cert.witness.has_value();
  return cert;
}

void expect_same(const EquilibriumCertificate& want, const EquilibriumCertificate& got,
                 const std::string& ctx) {
  EXPECT_EQ(got.is_equilibrium, want.is_equilibrium) << ctx;
  EXPECT_EQ(got.moves_checked, want.moves_checked) << ctx;
  ASSERT_EQ(got.witness.has_value(), want.witness.has_value()) << ctx;
  if (!want.witness) return;
  EXPECT_EQ(got.witness->swap, want.witness->swap) << ctx;
  EXPECT_EQ(got.witness->cost_before, want.witness->cost_before) << ctx;
  EXPECT_EQ(got.witness->cost_after, want.witness->cost_after) << ctx;
  EXPECT_EQ(got.witness->kind, want.witness->kind) << ctx;
}

/// Sweeps every labeled connected graph on n vertices; returns how many.
std::uint64_t sweep(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex a = 0; a < n; ++a) {
    for (Vertex b = a + 1; b < n; ++b) pairs.emplace_back(a, b);
  }
  // Two single-row u16 blocks per lane: the smallest row cache there is.
  const std::uint64_t budget = ThreadPool::global().size() * 4ull * n;
  std::vector<std::pair<ShardedCertifyConfig, const char*>> configs(3);
  configs[0] = {ShardedCertifyConfig{}, "u8"};
  configs[0].first.resources.width = WidthPolicy::ForceU8;
  configs[1] = {ShardedCertifyConfig{}, "u16"};
  configs[1].first.resources.width = WidthPolicy::ForceU16;
  configs[2] = {configs[1].first, "budgeted"};
  configs[2].first.resources.mem_budget = budget;

  BfsWorkspace ws;
  std::uint64_t graphs = 0;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << pairs.size()); ++mask) {
    Graph g(n);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if ((mask >> i & 1) != 0) g.add_edge(pairs[i].first, pairs[i].second);
    }
    if (!is_connected(g)) continue;
    ++graphs;
    for (const RunSpec& run : kRuns) {
      const EquilibriumCertificate want = naive_certificate(g, run, ws);
      for (const auto& [config, name] : configs) {
        const ShardedCertificate got =
            certify_sharded(g, run.model, run.include_deletions, config);
        expect_same(want, got.certificate,
                    "graph6=" + to_graph6(g) + " run=" + run.name + " config=" + name);
        if (::testing::Test::HasFailure()) return graphs;
      }
    }
  }
  return graphs;
}

TEST(ExhaustiveSweep, ConnectedGraphsUpToFiveVertices) {
  const std::uint64_t want[] = {1, 1, 4, 38, 728};
  for (Vertex n = 1; n <= 5; ++n) {
    EXPECT_EQ(sweep(n), want[n - 1]) << "n=" << n;
    if (HasFailure()) return;
  }
}

TEST(ExhaustiveSweep, ConnectedSixVertexGraphs) { EXPECT_EQ(sweep(6), 26704u); }

}  // namespace
}  // namespace bncg
