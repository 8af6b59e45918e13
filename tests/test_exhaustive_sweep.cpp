// Exhaustive differential sweep: every labeled connected graph on n ≤ 6
// vertices (1, 1, 4, 38, 728 and 26,704 of them) certified by
// certify_sharded — dense at ForceU8, dense at ForceU16, and budgeted at
// two single-row u16 blocks per lane — against the bncg::naive oracle, for
// sum, max and max with deletions. Verdict, witness and moves_checked must
// match byte for byte; a failure names the graph in graph6.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "certificate_oracle.hpp"
#include "core/certify_sharded.hpp"
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

  std::uint64_t graphs = 0;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << pairs.size()); ++mask) {
    Graph g(n);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if ((mask >> i & 1) != 0) g.add_edge(pairs[i].first, pairs[i].second);
    }
    if (!is_connected(g)) continue;
    ++graphs;
    for (const RunSpec& run : kRuns) {
      const EquilibriumCertificate want = naive_certificate(g, run.model, run.include_deletions);
      for (const auto& [config, name] : configs) {
        const ShardedCertificate got =
            certify_sharded(g, run.model, run.include_deletions, config);
        expect_same_certificate(got.certificate, want,
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
