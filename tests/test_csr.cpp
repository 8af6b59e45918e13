// CSR snapshots and batched bit-parallel BFS, differential-tested against
// the mutable Graph and its queue BFS: structure round-trips exactly,
// masked-edge traversals agree with physically removing the edge, and the
// batched APSP reproduces per-source BFS bit for bit on dense and sparse
// (queue-fallback) instances alike, and the bit-parallel reach kernel agrees
// with per-source capped rows, saturation bits included.
#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/apsp.hpp"
#include "graph/bfs.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

// ------------------------------------------------------------- structure

TEST(CsrGraph, SnapshotMatchesGraphStructure) {
  Xoshiro256ss rng(0xC5A);
  for (int trial = 0; trial < 20; ++trial) {
    const Vertex n = 2 + static_cast<Vertex>(rng.below(30));
    const std::size_t max_m = static_cast<std::size_t>(n) * (n - 1) / 2;
    const Graph g = random_gnm(n, rng.below(max_m + 1), rng);
    const CsrGraph csr(g);
    ASSERT_EQ(csr.num_vertices(), g.num_vertices());
    ASSERT_EQ(csr.num_edges(), g.num_edges());
    for (Vertex v = 0; v < n; ++v) {
      ASSERT_EQ(csr.degree(v), g.degree(v));
      const auto a = g.neighbors(v);
      const auto b = csr.neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      for (Vertex w = 0; w < n; ++w) EXPECT_EQ(csr.has_edge(v, w), g.has_edge(v, w));
    }
  }
}

TEST(CsrGraph, RebuildReflectsMutations) {
  Graph g = cycle(6);
  CsrGraph csr(g);
  EXPECT_TRUE(csr.has_edge(0, 1));
  g.remove_edge(0, 1);
  g.add_edge(0, 3);
  csr.rebuild(g);
  EXPECT_FALSE(csr.has_edge(0, 1));
  EXPECT_TRUE(csr.has_edge(0, 3));
  EXPECT_EQ(csr.num_edges(), g.num_edges());
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph csr{Graph(0)};
  EXPECT_EQ(csr.num_vertices(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

// ------------------------------------------------------- single-source BFS

void expect_rows_match_graph_bfs(const Graph& reference, const CsrGraph& csr, MaskedEdge mask) {
  const Vertex n = reference.num_vertices();
  BfsWorkspace gws;
  BatchBfsWorkspace ws;
  std::vector<std::uint16_t> dist(n);
  for (Vertex src = 0; src < n; ++src) {
    const BfsResult expect = bfs(reference, src, gws);
    const BfsResult got = csr_bfs(csr, src, mask, dist.data(), ws);
    ASSERT_EQ(got.dist_sum, expect.dist_sum);
    ASSERT_EQ(got.ecc, expect.ecc);
    ASSERT_EQ(got.reached, expect.reached);
    for (Vertex x = 0; x < n; ++x) {
      const Vertex want = gws.dist()[x];
      ASSERT_EQ(dist[x], want == kInfDist ? kInfDist16 : static_cast<std::uint16_t>(want))
          << "src=" << src << " x=" << x;
    }
  }
}

TEST(CsrBfs, MatchesGraphBfs) {
  Xoshiro256ss rng(0xB15);
  for (int trial = 0; trial < 20; ++trial) {
    const Vertex n = 2 + static_cast<Vertex>(rng.below(40));
    const std::size_t max_m = static_cast<std::size_t>(n) * (n - 1) / 2;
    const Graph g = random_gnm(n, rng.below(max_m + 1), rng);
    expect_rows_match_graph_bfs(g, CsrGraph(g), MaskedEdge{});
  }
}

TEST(CsrBfs, MaskedEdgeEqualsPhysicalRemoval) {
  Xoshiro256ss rng(0x3A5C);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 3 + static_cast<Vertex>(rng.below(24));
    const std::size_t max_m = static_cast<std::size_t>(n) * (n - 1) / 2;
    const Graph g = random_connected_gnm(n, std::min(max_m, n - 1 + rng.below(n)), rng);
    const CsrGraph csr(g);
    const auto edges = g.edges();
    const Edge e = edges[rng.below(edges.size())];
    Graph removed = g;
    removed.remove_edge(e.u, e.v);
    expect_rows_match_graph_bfs(removed, csr, MaskedEdge{e.u, e.v});
  }
}

// ------------------------------------------------------------ batched APSP

void expect_apsp_matches(const Graph& reference, const CsrGraph& csr, MaskedEdge mask) {
  const Vertex n = reference.num_vertices();
  BatchBfsWorkspace ws;
  std::vector<std::uint16_t> rows(static_cast<std::size_t>(n) * n);
  csr_apsp(csr, mask, rows.data(), ws);
  BfsWorkspace gws;
  for (Vertex src = 0; src < n; ++src) {
    bfs(reference, src, gws);
    for (Vertex x = 0; x < n; ++x) {
      const Vertex want = gws.dist()[x];
      ASSERT_EQ(rows[static_cast<std::size_t>(src) * n + x],
                want == kInfDist ? kInfDist16 : static_cast<std::uint16_t>(want))
          << "src=" << src << " x=" << x;
    }
  }
}

TEST(BatchBfs, ApspMatchesPerSourceBfsDense) {
  // Dense instances with n > 64 exercise the bit-parallel path across
  // multiple 64-source batches.
  Xoshiro256ss rng(0xAB5B);
  for (int trial = 0; trial < 6; ++trial) {
    const Vertex n = 65 + static_cast<Vertex>(rng.below(80));
    const Graph g = random_connected_gnm(n, 3 * static_cast<std::size_t>(n), rng);
    expect_apsp_matches(g, CsrGraph(g), MaskedEdge{});
  }
}

TEST(BatchBfs, ApspMatchesPerSourceBfsSparseFallback) {
  // Trees (m = n − 1) take the queue-BFS fallback; verify it too.
  Xoshiro256ss rng(0x7EE5);
  for (int trial = 0; trial < 6; ++trial) {
    const Vertex n = 65 + static_cast<Vertex>(rng.below(60));
    const Graph g = random_tree(n, rng);
    expect_apsp_matches(g, CsrGraph(g), MaskedEdge{});
  }
}

TEST(BatchBfs, ApspMatchesOnDisconnectedGraphs) {
  Xoshiro256ss rng(0xD15C);
  for (int trial = 0; trial < 10; ++trial) {
    const Vertex n = 66 + static_cast<Vertex>(rng.below(40));
    const Graph g = random_gnm(n, n, rng);  // typically disconnected
    expect_apsp_matches(g, CsrGraph(g), MaskedEdge{});
  }
}

TEST(BatchBfs, MaskedApspEqualsPhysicalRemoval) {
  Xoshiro256ss rng(0x9A55);
  for (int trial = 0; trial < 8; ++trial) {
    const Vertex n = 70 + static_cast<Vertex>(rng.below(30));
    const Graph g = random_connected_gnm(n, 2 * static_cast<std::size_t>(n), rng);
    const CsrGraph csr(g);
    const auto edges = g.edges();
    const Edge e = edges[rng.below(edges.size())];
    Graph removed = g;
    removed.remove_edge(e.u, e.v);
    expect_apsp_matches(removed, csr, MaskedEdge{e.u, e.v});
  }
}

TEST(BatchBfs, VertexMaskedApspEqualsPhysicalVertexRemoval) {
  // Masking a vertex must equal deleting all its incident edges, except
  // that the masked vertex's own row reads all-∞ (it is absent, not just
  // isolated).
  Xoshiro256ss rng(0xFACE);
  BatchBfsWorkspace ws;
  for (int trial = 0; trial < 8; ++trial) {
    const Vertex n = 66 + static_cast<Vertex>(rng.below(30));
    const Graph g = random_connected_gnm(n, 2 * static_cast<std::size_t>(n), rng);
    const CsrGraph csr(g);
    const Vertex v = static_cast<Vertex>(rng.below(n));
    Graph removed = g;
    const std::vector<Vertex> nbrs(g.neighbors(v).begin(), g.neighbors(v).end());
    for (const Vertex w : nbrs) removed.remove_edge(v, w);

    std::vector<std::uint16_t> rows(static_cast<std::size_t>(n) * n);
    csr_apsp(csr, MaskedEdge{}, rows.data(), ws, /*masked_vertex=*/v);
    BfsWorkspace gws;
    for (Vertex src = 0; src < n; ++src) {
      if (src == v) {
        for (Vertex x = 0; x < n; ++x) {
          ASSERT_EQ(rows[static_cast<std::size_t>(src) * n + x], kInfDist16);
        }
        continue;
      }
      bfs(removed, src, gws);
      for (Vertex x = 0; x < n; ++x) {
        const Vertex want = x == v ? kInfDist : gws.dist()[x];
        ASSERT_EQ(rows[static_cast<std::size_t>(src) * n + x],
                  want == kInfDist ? kInfDist16 : static_cast<std::uint16_t>(want))
            << "src=" << src << " x=" << x << " v=" << v;
      }
    }
  }
}

TEST(BatchBfs, PartialBatchWithExplicitSources) {
  const Graph g = path(12);
  const CsrGraph csr(g);
  BatchBfsWorkspace ws;
  const std::vector<Vertex> sources = {0, 5, 11};
  std::vector<std::uint16_t> rows(sources.size() * 12);
  bfs_batch(csr, sources, MaskedEdge{}, rows.data(), 12, ws);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (Vertex x = 0; x < 12; ++x) {
      const Vertex want = sources[i] > x ? sources[i] - x : x - sources[i];
      EXPECT_EQ(rows[i * 12 + x], want);
    }
  }
}

// ------------------------------------------------------------------ reach

/// `g` with its vertex ids shuffled by a seeded permutation.
Graph relabeled(const Graph& g, Xoshiro256ss& rng) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> perm(n);
  for (Vertex i = 0; i < n; ++i) perm[i] = i;
  for (Vertex i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  Graph h(n);
  for (const Edge& e : g.edges()) h.add_edge(perm[e.u], perm[e.v]);
  return h;
}

/// Per-source reference row: one single-source bfs_batch_capped (the queue
/// traversal) at the given saturation bound. False when it saturates.
bool reference_row(const CsrGraph& csr, Vertex source, Vertex masked, std::uint16_t max_finite,
                   std::vector<std::uint16_t>& row, BatchBfsWorkspace& ws) {
  row.resize(csr.num_vertices());
  const Vertex one[1] = {source};
  return bfs_batch_capped<std::uint16_t>(csr, one, MaskedEdge{}, row.data(), row.size(), ws,
                                         masked, kInfDist16, max_finite);
}

/// bfs_batch_reach against per-source rows: bit i of reach[u] must read
/// d(sources[i], u) ≤ cap, and no source saturates an unreachable bound.
void expect_reach_matches(const CsrGraph& csr, const std::vector<Vertex>& sources, Vertex masked,
                          std::int32_t cap, const std::string& ctx) {
  const Vertex n = csr.num_vertices();
  BatchBfsWorkspace ws;
  std::vector<std::uint64_t> reach(n, 0xA5A5A5A5A5A5A5A5ull);  // poison: every word is written
  const std::uint64_t saturated =
      bfs_batch_reach(csr, sources, masked, cap, kInfDist16 - 1, reach.data(), ws);
  EXPECT_EQ(saturated, 0u) << ctx;
  std::vector<std::uint16_t> row;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    ASSERT_TRUE(reference_row(csr, sources[i], masked, kInfDist16 - 1, row, ws)) << ctx;
    for (Vertex u = 0; u < n; ++u) {
      const bool want = row[u] != kInfDist16 && static_cast<std::int32_t>(row[u]) <= cap;
      ASSERT_EQ((reach[u] >> i & 1) != 0, want)
          << ctx << " source=" << sources[i] << " u=" << u << " cap=" << cap;
    }
  }
}

TEST(BatchBfs, ReachMatchesPerSourceCappedRows) {
  Xoshiro256ss rng(0x4EAC);
  std::vector<std::pair<Graph, std::string>> instances;
  for (int trial = 0; trial < 4; ++trial) {
    const Vertex n = 70 + static_cast<Vertex>(rng.below(80));
    instances.emplace_back(random_connected_gnm(n, 2 * static_cast<std::size_t>(n), rng),
                           "gnm" + std::to_string(trial));
  }
  instances.emplace_back(path(90), "path90");
  instances.emplace_back(cycle(101), "cycle101");
  instances.emplace_back(relabeled(rotated_torus(6).graph(), rng), "torus6");
  instances.emplace_back(relabeled(rotated_torus(9).graph(), rng), "torus9");
  for (const auto& [g, name] : instances) {
    const CsrGraph csr(g);
    const Vertex n = g.num_vertices();
    std::vector<Vertex> ids(n);
    for (Vertex i = 0; i < n; ++i) ids[i] = i;
    for (const std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{33},
                                    std::size_t{64}}) {
      for (Vertex i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.below(i)]);
      const std::vector<Vertex> sources(ids.begin(), ids.begin() + count);
      // No mask, a mask among the sources, and a mask elsewhere.
      for (const Vertex masked : {kNoVertex, sources[0], ids[count]}) {
        for (const std::int32_t cap : {-1, 0, 1, static_cast<std::int32_t>(n / 8),
                                       static_cast<std::int32_t>(n)}) {
          expect_reach_matches(csr, sources, masked, cap,
                               name + " count=" + std::to_string(count) +
                                   " masked=" + std::to_string(masked));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(BatchBfs, ReachSaturationBitsMatchCappedRowsOnPath) {
  // On path(300) the masked eccentricity of a source is its distance to the
  // far end of its piece, so a small max_finite splits the sources into
  // saturating and fitting ones (unmasked, every source saturates).
  const Graph g = path(300);
  const CsrGraph csr(g);
  BatchBfsWorkspace ws;
  constexpr std::uint16_t kMaxFinite = 120;
  std::vector<Vertex> sources;
  for (Vertex s = 0; s < 300; s += 5) sources.push_back(s);  // 60 sources
  std::vector<std::uint64_t> reach(300);
  std::vector<std::uint16_t> row;
  const std::uint64_t all = (std::uint64_t{1} << sources.size()) - 1;
  std::uint64_t seen_saturated = 0;
  std::uint64_t seen_fitting = 0;
  for (const Vertex masked : {kNoVertex, Vertex{150}, Vertex{40}}) {
    for (const std::int32_t cap : {0, 60, static_cast<std::int32_t>(kMaxFinite) + 1}) {
      const std::uint64_t saturated =
          bfs_batch_reach(csr, sources, masked, cap, kMaxFinite, reach.data(), ws);
      std::uint64_t want_saturated = 0;
      for (std::size_t i = 0; i < sources.size(); ++i) {
        if (!reference_row(csr, sources[i], masked, kMaxFinite, row, ws)) {
          want_saturated |= std::uint64_t{1} << i;
        }
        // Reach stays exact up to level max_finite + 1 for every source.
        ASSERT_TRUE(reference_row(csr, sources[i], masked, kInfDist16 - 1, row, ws));
        for (Vertex u = 0; u < 300; ++u) {
          const bool want = row[u] != kInfDist16 && static_cast<std::int32_t>(row[u]) <= cap;
          ASSERT_EQ((reach[u] >> i & 1) != 0, want)
              << "masked=" << masked << " source=" << sources[i] << " u=" << u;
        }
      }
      EXPECT_EQ(saturated, want_saturated) << "masked=" << masked << " cap=" << cap;
      seen_saturated |= want_saturated;
      seen_fitting |= all & ~want_saturated;
    }
  }
  EXPECT_NE(seen_saturated, 0u);  // both kinds of source occur
  EXPECT_NE(seen_fitting, 0u);
}

TEST(DistanceMatrix, StillMatchesGraphBfsThroughCsrBackend) {
  Xoshiro256ss rng(0xD157);
  for (int trial = 0; trial < 8; ++trial) {
    const Vertex n = 40 + static_cast<Vertex>(rng.below(90));
    const Graph g = trial % 2 == 0 ? random_connected_gnm(n, 2 * static_cast<std::size_t>(n), rng)
                                   : random_gnm(n, n, rng);
    const DistanceMatrix dm(g);
    BfsWorkspace gws;
    bool all_reached = true;
    for (Vertex src = 0; src < n; ++src) {
      const BfsResult r = bfs(g, src, gws);
      all_reached = all_reached && r.spans(n);
      for (Vertex x = 0; x < n; ++x) ASSERT_EQ(dm.at(src, x), gws.dist()[x]);
    }
    EXPECT_EQ(dm.connected(), all_reached);
  }
}

}  // namespace
}  // namespace bncg
