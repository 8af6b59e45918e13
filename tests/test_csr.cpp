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
#include "graph/dist_width.hpp"
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

// ------------------------------------------------- level loop differential

/// Instances whose bit-parallel level sequence mixes pull steps (fat
/// frontiers) and push steps (frontiers below n/8), all dense enough
/// (m ≥ n + n/4) that ≥ 8-source row batches take the bit-parallel path.
std::vector<std::pair<std::string, Graph>> level_loop_instances(Xoshiro256ss& rng) {
  std::vector<std::pair<std::string, Graph>> out;
  // K_12 with an 80-vertex path tail: pull levels in the clique, push levels
  // down the tail, and clique sources pass the u8 bound (61) on the tail.
  Graph tail(92);
  for (Vertex a = 0; a < 12; ++a) {
    for (Vertex b = a + 1; b < 12; ++b) tail.add_edge(a, b);
  }
  for (Vertex x = 12; x < 92; ++x) tail.add_edge(x - 1, x);
  out.emplace_back("clique_tail", tail);
  // Eight 16-vertex arms around a hub, neighboring arms joined at every
  // other step.
  Graph star(129);
  for (Vertex arm = 0; arm < 8; ++arm) {
    for (Vertex step = 0; step < 16; ++step) {
      const Vertex x = 1 + arm * 16 + step;
      star.add_edge(step == 0 ? 0 : x - 1, x);
      if (step % 2 == 1) star.add_edge(x, 1 + (arm + 1) % 8 * 16 + step);
    }
  }
  out.emplace_back("star_of_paths", star);
  out.emplace_back("torus8", relabeled(rotated_torus(8).graph(), rng));
  // A degree-70 hub over a sparse random graph: the pull step's long gather.
  Graph hub = random_connected_gnm(200, 260, rng);
  for (Vertex added = 0; added < 70;) {
    added += hub.add_edge_if_absent(0, 1 + static_cast<Vertex>(rng.below(199))) ? 1 : 0;
  }
  out.emplace_back("hub70", hub);
  // Two components: every source leaves the other's entries to back-fill.
  Graph split(122);
  for (const Edge& e : tail.edges()) split.add_edge(e.u, e.v);
  for (Vertex i = 0; i < 30; ++i) split.add_edge(92 + i, 92 + (i + 1) % 30);
  out.emplace_back("clique_tail+cycle30", split);
  return out;
}

/// Per-source queue BFS rows (csr_bfs, 16-bit) for the given mask.
std::vector<std::vector<std::uint16_t>> queue_rows(const CsrGraph& csr,
                                                   const std::vector<Vertex>& sources,
                                                   MaskedEdge mask, Vertex masked) {
  BatchBfsWorkspace ws;
  std::vector<std::vector<std::uint16_t>> rows(sources.size(),
                                               std::vector<std::uint16_t>(csr.num_vertices()));
  for (std::size_t i = 0; i < sources.size(); ++i) {
    (void)csr_bfs(csr, sources[i], mask, rows[i].data(), ws, masked);
  }
  return rows;
}

/// bfs_batch_capped rows against the queue rows, at a compact stride and at
/// a stride of whole KiB (the tiled settle pass). Saturation must be
/// reported exactly when some finite distance exceeds max_finite.
template <typename Dist>
void expect_batch_rows_match(const CsrGraph& csr, const std::vector<Vertex>& sources,
                             MaskedEdge mask, Vertex masked, Dist inf_value, Dist max_finite,
                             const std::string& ctx) {
  const Vertex n = csr.num_vertices();
  const auto want = queue_rows(csr, sources, mask, masked);
  bool want_fits = true;
  for (const auto& row : want) {
    for (const std::uint16_t d : row) want_fits = want_fits && (d == kInfDist16 || d <= max_finite);
  }
  const std::size_t per_kib = 1024 / sizeof(Dist);
  for (const std::size_t stride : {std::size_t{n}, (n + per_kib - 1) / per_kib * per_kib}) {
    BatchBfsWorkspace ws;
    std::vector<Dist> rows(sources.size() * stride, static_cast<Dist>(0xA5));  // poison
    const bool fits = bfs_batch_capped<Dist>(csr, sources, mask, rows.data(), stride, ws, masked,
                                             inf_value, max_finite);
    ASSERT_EQ(fits, want_fits) << ctx << " stride=" << stride;
    if (!fits) continue;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (Vertex u = 0; u < stride; ++u) {
        const std::uint16_t d = u < n ? want[i][u] : std::uint16_t{0xA5};  // padding: untouched
        ASSERT_EQ(rows[i * stride + u], d == kInfDist16 ? inf_value : static_cast<Dist>(d))
            << ctx << " stride=" << stride << " source=" << sources[i] << " u=" << u;
      }
    }
  }
}

/// bfs_batch_reach against the queue rows: bit i of reach[u] reads
/// d(sources[i], u) ≤ cap, cut at max_finite + 1 where a saturating
/// traversal stops, and the saturation bits name exactly the sources with a
/// finite distance above max_finite.
void expect_reach_matches_queue(const CsrGraph& csr, const std::vector<Vertex>& sources,
                                Vertex masked, std::int32_t cap, Vertex max_finite,
                                const std::string& ctx) {
  const Vertex n = csr.num_vertices();
  const auto want = queue_rows(csr, sources, MaskedEdge{}, masked);
  BatchBfsWorkspace ws;
  std::vector<std::uint64_t> reach(n, 0xA5A5A5A5A5A5A5A5ull);
  const std::uint64_t saturated =
      bfs_batch_reach(csr, sources, masked, cap, max_finite, reach.data(), ws);
  const std::int64_t bound = std::min<std::int64_t>(cap, std::int64_t{max_finite} + 1);
  std::uint64_t want_saturated = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (Vertex u = 0; u < n; ++u) {
      const std::uint16_t d = want[i][u];
      if (d != kInfDist16 && d > max_finite) want_saturated |= std::uint64_t{1} << i;
      ASSERT_EQ((reach[u] >> i & 1) != 0, d != kInfDist16 && d <= bound)
          << ctx << " cap=" << cap << " source=" << sources[i] << " u=" << u;
    }
  }
  EXPECT_EQ(saturated, want_saturated) << ctx << " cap=" << cap;
}

/// Largest finite queue-BFS distance from any of `sources`: the last level.
std::int32_t last_level(const CsrGraph& csr, const std::vector<Vertex>& sources, Vertex masked) {
  std::int32_t last = 0;
  for (const auto& row : queue_rows(csr, sources, MaskedEdge{}, masked)) {
    for (const std::uint16_t d : row) {
      if (d != kInfDist16) last = std::max<std::int32_t>(last, d);
    }
  }
  return last;
}

TEST(BatchBfs, LevelLoopRowsMatchQueueBfs) {
  Xoshiro256ss rng(0x1E7E);
  for (const auto& [name, g] : level_loop_instances(rng)) {
    const CsrGraph csr(g);
    const Vertex n = g.num_vertices();
    const auto edges = g.edges();
    std::vector<Vertex> ids(n);
    for (Vertex i = 0; i < n; ++i) ids[i] = i;
    for (const std::size_t count : {std::size_t{8}, std::size_t{41}, std::size_t{64}}) {
      for (Vertex i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.below(i)]);
      if (count == 64) std::swap(ids[5], *std::find(ids.begin(), ids.end(), 0));  // clique / hub
      const std::vector<Vertex> sources(ids.begin(), ids.begin() + count);
      const Edge e = edges[rng.below(edges.size())];
      const std::vector<std::pair<MaskedEdge, Vertex>> masks = {
          {MaskedEdge{}, kNoVertex},
          {MaskedEdge{e.u, e.v}, kNoVertex},
          {MaskedEdge{}, sources[1]},  // a masked source
          {MaskedEdge{}, ids[count]},  // a masked non-source
      };
      for (const auto& [mask, masked] : masks) {
        const std::string ctx = name + " count=" + std::to_string(count) +
                                " edge=" + std::to_string(mask.u) + "-" + std::to_string(mask.v) +
                                " masked=" + std::to_string(masked);
        expect_batch_rows_match<std::uint8_t>(csr, sources, mask, masked, kSearchInf8,
                                              kMaxFiniteFor<std::uint8_t>, ctx + " u8");
        expect_batch_rows_match<std::uint16_t>(csr, sources, mask, masked, kInfDist16,
                                               kInfDist16 - 1, ctx + " u16");
        expect_batch_rows_match<std::uint16_t>(csr, sources, mask, masked, kInfDist16, 9,
                                               ctx + " u16 max_finite=9");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(BatchBfs, LevelLoopReachMatchesQueueBfs) {
  Xoshiro256ss rng(0x4EAD);
  for (const auto& [name, g] : level_loop_instances(rng)) {
    const CsrGraph csr(g);
    const Vertex n = g.num_vertices();
    std::vector<Vertex> ids(n);
    for (Vertex i = 0; i < n; ++i) ids[i] = i;
    for (const std::size_t count : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      for (Vertex i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.below(i)]);
      const std::vector<Vertex> sources(ids.begin(), ids.begin() + count);
      for (const Vertex masked : {kNoVertex, sources[0], ids[count]}) {
        const std::int32_t last = last_level(csr, sources, masked);
        for (const Vertex max_finite : {Vertex{kMaxFiniteFor<std::uint8_t>}, Vertex{9}}) {
          for (const std::int32_t cap : {-1, 0, 1, last / 2, last, last + 5}) {
            expect_reach_matches_queue(csr, sources, masked, cap, max_finite,
                                       name + " count=" + std::to_string(count) +
                                           " masked=" + std::to_string(masked) +
                                           " max_finite=" + std::to_string(max_finite));
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
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
