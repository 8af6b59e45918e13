// Differential suite for the budgeted distance rows (DESIGN.md
// §16): the blocked row cache (graph/row_cache.hpp) + budgeted SwapEngine
// scans must reproduce the dense path's certificates byte for byte —
// verdict, move counts, witness fields — across 200+ seeded instances at
// both storage widths and both SIMD extremes, survive eviction thrash
// (budget barely above one block), and never skip a row that could have
// mattered (every candidate whose masked row was never repaired
// re-verified non-improving by BFS). CMakeLists pins the whole RowCache* filter at BNCG_THREADS 1
// and 4 — lane budgets derive from the pool size, so both counts must
// certify identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/dist_provider.hpp"
#include "core/instance.hpp"
#include "core/swap.hpp"
#include "core/swap_engine.hpp"
#include "core/usage_cost.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/bfs.hpp"
#include "graph/dist_width.hpp"
#include "graph/row_cache.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace bncg {
namespace {

/// A per-lane budget of a few rows: small enough that no dense slab fits
/// at n ≥ 16 (dense u8 needs n² ≤ 12n ⇔ n ≤ 12), large enough that the
/// cache's two-block minimum holds at every pool size CI pins.
[[nodiscard]] std::uint64_t forcing_budget(Vertex n) {
  return ThreadPool::global().size() * 12ull * n;
}

/// The thrash budget: exactly three single-row u16 blocks per lane — one
/// above the cache's two-block minimum, so any scan touching more than
/// three rows evicts constantly.
[[nodiscard]] std::uint64_t thrash_budget(Vertex n) {
  return ThreadPool::global().size() * 6ull * n;
}

void expect_dev_eq(const std::optional<Deviation>& want, const std::optional<Deviation>& got,
                   const std::string& ctx) {
  ASSERT_EQ(want.has_value(), got.has_value()) << ctx;
  if (!want) return;
  EXPECT_EQ(want->swap.v, got->swap.v) << ctx;
  EXPECT_EQ(want->swap.remove_w, got->swap.remove_w) << ctx;
  EXPECT_EQ(want->swap.add_w, got->swap.add_w) << ctx;
  EXPECT_EQ(want->cost_before, got->cost_before) << ctx;
  EXPECT_EQ(want->cost_after, got->cost_after) << ctx;
  EXPECT_EQ(static_cast<int>(want->kind), static_cast<int>(got->kind)) << ctx;
}

void expect_cert_eq(const ShardedCertificate& dense, const ShardedCertificate& budgeted,
                    const std::string& ctx) {
  EXPECT_EQ(dense.certificate.is_equilibrium, budgeted.certificate.is_equilibrium) << ctx;
  EXPECT_EQ(dense.certificate.moves_checked, budgeted.certificate.moves_checked) << ctx;
  EXPECT_EQ(dense.agents_scanned, budgeted.agents_scanned) << ctx;
  expect_dev_eq(dense.certificate.witness, budgeted.certificate.witness, ctx);
}

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

constexpr WidthPolicy kWidths[] = {WidthPolicy::ForceU8, WidthPolicy::ForceU16};

/// Dense vs budgeted certificate for one (graph, run, width) cell; returns
/// the budgeted one.
ShardedCertificate check_parity(const Graph& g, const RunSpec& run, WidthPolicy width,
                                std::uint64_t budget, const std::string& ctx) {
  ShardedCertifyConfig dense_cfg;
  dense_cfg.resources.width = width;
  const ShardedCertificate dense =
      certify_sharded(g, run.model, run.include_deletions, dense_cfg);

  ShardedCertifyConfig budget_cfg = dense_cfg;
  budget_cfg.resources.mem_budget = budget;
  const ShardedCertificate budgeted =
      certify_sharded(g, run.model, run.include_deletions, budget_cfg);
  expect_cert_eq(dense, budgeted, ctx);
  return budgeted;
}

/// A cycle plus a hub adjacent to every rim vertex except the multiples of
/// `skip`: with skip = 0 the hub sees the whole rim and has no swap
/// candidate at all.
Graph wheel(Vertex rim, Vertex skip = 0) {
  Graph g = cycle(rim);
  const Vertex hub = g.add_vertex();
  for (Vertex x = 0; x < rim; ++x) {
    if (skip == 0 || x % skip != 0) g.add_edge(hub, x);
  }
  return g;
}

/// A cycle of 120–199 vertices with five random chords, plus a hub joined
/// to 65–134 random rim vertices: the hub's removed edges span two 64-edge
/// groups of the budgeted far filter, and its far sets mix members far for
/// every edge with members far for one edge only.
Graph chorded_hub(std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const Vertex n = 120 + static_cast<Vertex>(rng.below(80));
  Graph g = cycle(n);
  for (int i = 0; i < 5; ++i) {
    const Vertex a = static_cast<Vertex>(rng.below(n));
    const Vertex b = static_cast<Vertex>(rng.below(n));
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b);
  }
  const Vertex hub = g.add_vertex();
  const Vertex want = 65 + static_cast<Vertex>(rng.below(70));
  for (Vertex k = 0; k < 3 * want && g.degree(hub) < want; ++k) {
    const Vertex x = static_cast<Vertex>(rng.below(n));
    if (!g.has_edge(hub, x)) g.add_edge(hub, x);
  }
  return g;
}

// ------------------------------------------------------------------ units

TEST(RowCache, ParseMemBytes) {
  EXPECT_EQ(parse_mem_bytes("0"), 0u);
  EXPECT_EQ(parse_mem_bytes("1024"), 1024u);
  EXPECT_EQ(parse_mem_bytes("4K"), 4096u);
  EXPECT_EQ(parse_mem_bytes("4k"), 4096u);
  EXPECT_EQ(parse_mem_bytes("64M"), 64ull << 20);
  EXPECT_EQ(parse_mem_bytes("2G"), 2ull << 30);
  EXPECT_THROW((void)parse_mem_bytes(""), std::invalid_argument);
  EXPECT_THROW((void)parse_mem_bytes("12Q"), std::invalid_argument);
  EXPECT_THROW((void)parse_mem_bytes("K"), std::invalid_argument);
  EXPECT_THROW((void)parse_mem_bytes("-4"), std::invalid_argument);
  EXPECT_THROW((void)parse_mem_bytes("99999999999999999999G"), std::invalid_argument);
}

TEST(RowCache, PolicyWidthThresholds) {
  EXPECT_EQ(WidthAndBudgetPolicy::width_for_max_distance(0), DistWidth::U8);
  EXPECT_EQ(WidthAndBudgetPolicy::width_for_max_distance(kMaxFiniteFor<std::uint8_t>),
            DistWidth::U8);
  EXPECT_EQ(WidthAndBudgetPolicy::width_for_max_distance(kMaxFiniteFor<std::uint8_t> + 1),
            DistWidth::U16);
  // Unlimited budget: dense fits below the u16 id cap, never above it.
  WidthAndBudgetPolicy unlimited{ResourceConfig{}, /*lanes=*/1};
  EXPECT_TRUE(unlimited.dense_fits(1000, DistWidth::U8));
  EXPECT_FALSE(unlimited.dense_fits(kInfDist16, DistWidth::U16));
  // A 10-byte lane budget rejects any dense slab bigger than 3×3.
  ResourceConfig tiny;
  tiny.mem_budget = 10;
  WidthAndBudgetPolicy capped{tiny, /*lanes=*/1};
  EXPECT_TRUE(capped.dense_fits(3, DistWidth::U8));
  EXPECT_FALSE(capped.dense_fits(4, DistWidth::U8));
  EXPECT_FALSE(capped.dense_fits(3, DistWidth::U16));
  EXPECT_EQ(capped.storage_for(4, DistWidth::U8), RowStorage::Budgeted);
  EXPECT_EQ(capped.storage_for(3, DistWidth::U8), RowStorage::Dense);
}

TEST(RowCache, ConfigureRejectsImpossibleBudget) {
  RowCache<std::uint16_t> cache;
  // Two single-row u16 blocks at n=100 need 400 bytes.
  EXPECT_THROW(cache.configure(100, 399), std::invalid_argument);
  cache.configure(100, 400);
  EXPECT_EQ(cache.block_rows(), 1u);
  EXPECT_EQ(cache.max_blocks(), 2u);
  cache.configure(100, 4ull * 100 * 200);  // four u16 slabs: full 64-row blocks
  EXPECT_EQ(cache.block_rows(), 64u);
  EXPECT_EQ(cache.max_blocks(), 6u);  // floor(80000 / (64·200))
}

TEST(RowCache, RowsMatchBfsAndEvictionsCount) {
  Xoshiro256ss rng(7);
  const Graph g = random_connected_gnm(60, 120, rng);
  const CsrGraph csr(g);
  const Vertex n = g.num_vertices();

  RowCache<std::uint16_t> cache;
  cache.configure(n, 8ull * n);  // four single-row blocks
  BatchBfsWorkspace ws;
  cache.begin_context(csr, kInfDist16, static_cast<std::uint16_t>(kInfDist16 - 1));

  // Reference: one BFS row at a time via the engine-independent positional
  // traversal.
  std::vector<std::uint16_t> want(n);
  for (Vertex src = 0; src < n; ++src) {
    const Vertex one[] = {src};
    ASSERT_TRUE(bfs_batch_capped<std::uint16_t>(csr, one, MaskedEdge{}, want.data(), n, ws,
                                                kNoVertex, kInfDist16,
                                                static_cast<std::uint16_t>(kInfDist16 - 1)));
    const std::uint16_t* got = cache.row(src, ws);
    ASSERT_NE(got, nullptr);
    for (Vertex y = 0; y < n; ++y) {
      ASSERT_EQ(got[y], want[y]) << "src=" << src << " y=" << y;
    }
  }
  // 60 materializations through a 4-row cache must have recycled blocks.
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().misses, static_cast<std::uint64_t>(n));
  EXPECT_LE(cache.resident_sources().size(), 4u);
  EXPECT_LE(cache.stats().peak_bytes, 8ull * n);

  // Context bump: every resident row becomes invisible in O(1).
  cache.begin_context(csr, kInfDist16, static_cast<std::uint16_t>(kInfDist16 - 1));
  EXPECT_TRUE(cache.resident_sources().empty());
  EXPECT_FALSE(cache.resident(5));
}

// ------------------------------------------------- differential certify

// 35 seeded G(n, m) instances × 3 run configs × 2 forced widths = 210
// dense-vs-budgeted certificate comparisons, n spanning 16..63 with edge
// densities from tree-like to dense. Witnesses (gnm instances are almost
// never equilibria) make this byte-parity, not just verdict-parity.
TEST(RowCache, DifferentialCertifyGnm) {
  for (std::uint64_t seed = 1; seed <= 35; ++seed) {
    Xoshiro256ss rng(seed * 0x9e3779b97f4a7c15ull);
    const Vertex n = static_cast<Vertex>(16 + (seed * 7) % 48);
    const std::size_t m = n - 1 + static_cast<std::size_t>(rng.below(2 * n));
    const Graph g = random_connected_gnm(n, m, rng);
    for (const RunSpec& run : kRuns) {
      for (const WidthPolicy width : kWidths) {
        const std::string ctx = "seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                                " m=" + std::to_string(m) + " run=" + run.name +
                                " width=" + (width == WidthPolicy::ForceU8 ? "u8" : "u16");
        check_parity(g, run, width, forcing_budget(n), ctx);
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// A cycle with one diameter chord: masking a chord endpoint leaves paths
/// of length ≈ len/2 + len/4, past the u8 cap at len = 100.
Graph chorded_cycle(Vertex len) {
  Graph g = cycle(len);
  g.add_edge(0, len / 2);
  return g;
}

// Structured instances: equilibria (torus — exercises the prune fast
// path), near-equilibria, wheels (an agent with no candidate, an agent
// whose removed edges span two 64-edge groups), and paths and cycles long
// enough that ForceU8 saturates and falls back to u16 in BOTH storage
// modes. The budgeted max-model fallback counts are pinned: a budgeted
// agent falls back lazily, when a row it reads saturates — an unmasked
// neighbor or survivor row, a repaired row, or a far vertex the reach
// filter meets (DESIGN.md §16).
TEST(RowCache, DifferentialCertifyStructured) {
  struct Structured {
    Graph g;
    const char* name;
    std::uint64_t max_fallbacks;  // ForceU8 budgeted, max and max+del
  };
  std::vector<Structured> instances;
  instances.push_back({rotated_torus(5).graph(), "torus5", 0});
  instances.push_back({rotated_torus(6).graph(), "torus6", 0});
  instances.push_back({cycle(48), "cycle48", 0});
  // Every agent of P₇₀ reads an over-cap unmasked row: a survivor near
  // the far end, or a neighbor row near an end.
  instances.push_back({path(70), "path70", 70});
  instances.push_back({cycle(130), "cycle130", 130});
  instances.push_back({chorded_cycle(100), "chorded100", 50});
  instances.push_back({complete_bipartite(6, 10), "k6_10", 0});
  instances.push_back({wheel(20), "wheel20", 0});
  // A degree-100 hub: its removed edges span two 64-edge groups.
  instances.push_back({wheel(150, 3), "hub150", 1});
  for (const auto& [g, name, max_fallbacks] : instances) {
    for (const RunSpec& run : kRuns) {
      for (const WidthPolicy width : kWidths) {
        const std::string ctx = std::string(name) + " run=" + run.name +
                                " width=" + (width == WidthPolicy::ForceU8 ? "u8" : "u16");
        const ShardedCertificate budgeted =
            check_parity(g, run, width, forcing_budget(g.num_vertices()), ctx);
        if (HasFatalFailure()) return;
        if (run.model == UsageCost::Max && width == WidthPolicy::ForceU8) {
          EXPECT_EQ(budgeted.width_fallbacks, max_fallbacks) << ctx;
        }
      }
    }
  }
}

// stop_on_violation makes the witness schedule-dependent but the verdict
// deterministic — budgeted and dense must agree on it.
TEST(RowCache, DifferentialStopOnViolationVerdict) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256ss rng(seed);
    const Vertex n = static_cast<Vertex>(20 + seed * 4);
    const Graph g = random_connected_gnm(n, 2 * n, rng);
    for (const RunSpec& run : kRuns) {
      ShardedCertifyConfig dense_cfg;
      dense_cfg.stop_on_violation = true;
      const ShardedCertificate dense =
          certify_sharded(g, run.model, run.include_deletions, dense_cfg);
      ShardedCertifyConfig budget_cfg = dense_cfg;
      budget_cfg.resources.mem_budget = forcing_budget(n);
      const ShardedCertificate budgeted =
          certify_sharded(g, run.model, run.include_deletions, budget_cfg);
      EXPECT_EQ(dense.certificate.is_equilibrium, budgeted.certificate.is_equilibrium)
          << "seed=" << seed << " run=" << run.name;
    }
  }
}

// Per-agent parity at the engine level, including the per-call
// moves_checked counter and first_deviation's early-exit accounting — the
// sharpest-grained equivalence the certificate parity above aggregates.
TEST(RowCache, DifferentialPerAgentMoves) {
  // Four G(n, 1.5n) instances, a wheel — one scratch scans every agent in
  // turn, so its hub (no candidate) follows rim agents that had some — and
  // a hub of degree > 64.
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Xoshiro256ss rng(seed + 100);
    const Vertex n = static_cast<Vertex>(24 + seed * 8);
    graphs.push_back(random_connected_gnm(n, n + n / 2, rng));
  }
  graphs.push_back(wheel(20));
  graphs.push_back(chorded_hub(44));
  for (std::size_t seed = 1; seed <= graphs.size(); ++seed) {
    const Graph& g = graphs[seed - 1];
    const Vertex n = g.num_vertices();
    for (const RunSpec& run : kRuns) {
      for (const WidthPolicy width : kWidths) {
        ResourceConfig dense_res;
        dense_res.width = width;
        ResourceConfig budget_res = dense_res;
        budget_res.mem_budget = forcing_budget(n);
        const SwapEngine dense(g, dense_res);
        const SwapEngine budgeted(g, budget_res);
        // Two scratch histories: scratch[0] / scratch[1] belong to one entry
        // point each, so first_deviation's only ever sees early-exiting
        // scans; scratch[2] is shared, so best_deviation(v) runs on what an
        // early-exiting first_deviation(v − 1) left behind.
        SwapEngine::Scratch scratch[3][2];
        for (Vertex v = 0; v < n; ++v) {
          const std::string ctx = "seed=" + std::to_string(seed) + " v=" + std::to_string(v) +
                                  " run=" + run.name;
          for (const bool first : {false, true}) {
            for (const int history : {static_cast<int>(first), 2}) {
              SwapEngine::Scratch& ds = scratch[history][0];
              SwapEngine::Scratch& bs = scratch[history][1];
              const std::string where = ctx + (first ? " first" : " best") +
                                        (history == 2 ? " shared" : " split");
              std::uint64_t dense_moves = 0, budget_moves = 0;
              const auto want =
                  first ? dense.first_deviation(v, run.model, ds, run.include_deletions,
                                                &dense_moves)
                        : dense.best_deviation(v, run.model, ds, run.include_deletions,
                                               &dense_moves);
              const auto got =
                  first ? budgeted.first_deviation(v, run.model, bs, run.include_deletions,
                                                   &budget_moves)
                        : budgeted.best_deviation(v, run.model, bs, run.include_deletions,
                                                  &budget_moves);
              expect_dev_eq(want, got, where);
              EXPECT_EQ(dense_moves, budget_moves) << where;
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------------- SIMD extremes

/// Budgeted certificates must be level-invariant AND dense-identical with
/// the dispatch pinned to scalar and to the widest level this CPU runs.
TEST(RowCache, SimdExtremesParity) {
  const SimdLevel saved = simd_active_level();
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_max_level() != SimdLevel::Scalar) levels.push_back(simd_max_level());
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256ss rng(seed * 31);
    const Vertex n = static_cast<Vertex>(20 + seed * 6);
    const Graph g = random_connected_gnm(n, 2 * n, rng);
    for (const RunSpec& run : kRuns) {
      for (const WidthPolicy width : kWidths) {
        for (const SimdLevel level : levels) {
          ASSERT_EQ(simd_set_level(level), level);
          const std::string ctx = "seed=" + std::to_string(seed) + " run=" + run.name +
                                  " level=" + simd_level_name(level);
          check_parity(g, run, width, forcing_budget(n), ctx);
          if (HasFatalFailure()) {
            simd_set_level(saved);
            return;
          }
        }
      }
    }
  }
  simd_set_level(saved);
}

// ------------------------------------------------------- eviction thrash

// Budget one row above the cache's two-block minimum: every scan stage
// refetches through a three-slot window. The certificate must not move a
// byte, and the cache must actually have thrashed.
TEST(RowCache, EvictionThrashParity) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256ss rng(seed * 977);
    const Vertex n = static_cast<Vertex>(24 + seed * 5);
    const Graph g = random_connected_gnm(n, 2 * n, rng);
    for (const RunSpec& run : kRuns) {
      const std::string ctx = "seed=" + std::to_string(seed) + " run=" + run.name;
      check_parity(g, run, WidthPolicy::ForceU16, thrash_budget(n), ctx);
      if (HasFatalFailure()) return;
    }
    // The thrash is observable: a single-scratch engine pass leaves
    // eviction marks (any sum scan materializes ≥ deg + survivors rows
    // through 3 slots).
    ResourceConfig res;
    res.width = WidthPolicy::ForceU16;
    res.mem_budget = thrash_budget(n);  // three single-row u16 blocks per lane
    const SwapEngine engine(g, res);
    ASSERT_EQ(engine.budget_policy().storage_for(n, DistWidth::U16), RowStorage::Budgeted);
    SwapEngine::Scratch scratch;
    std::uint64_t dummy = 0;
    for (Vertex v = 0; v < n; ++v) {
      (void)engine.best_deviation(v, UsageCost::Sum, scratch, false, &dummy);
    }
    EXPECT_GT(scratch.row_cache_stats().evictions, 0u) << "seed=" << seed;
  }
}

// ------------------------------------------------------- prune soundness

// Property: a candidate whose masked row the budgeted scan never repaired
// can never have mattered. MaskedRowRepair::agent_rows() lists every row
// the agent repaired, so its complement over the candidate set is exactly
// the set the unmasked bound (sum) or the reach far filter (max) ruled
// out; every such candidate y is re-verified by BFS to be non-improving
// for EVERY removed edge w — the exactness arguments of DESIGN.md §16 and
// §17 checked instance by instance, under a deliberately tight
// (thrash-prone) half-slab budget.
void check_prune_soundness(const Graph& g, UsageCost model, const std::string& name) {
  const Vertex n = g.num_vertices();
  ResourceConfig res;
  res.width = WidthPolicy::ForceU16;
  res.mem_budget = static_cast<std::uint64_t>(n) * n;  // half the u16 slab
  const SwapEngine engine(g, res);
  ASSERT_EQ(engine.budget_policy().storage_for(n, DistWidth::U16), RowStorage::Budgeted);
  SwapEngine::Scratch scratch;
  BfsWorkspace ws;

  for (Vertex v = 0; v < n; ++v) {
    const std::uint64_t old_cost = vertex_cost(g, v, model, ws);
    const auto dev = engine.best_deviation(v, model, scratch, /*include_deletions=*/false);
    if (dev) {
      EXPECT_EQ(dev->cost_before, old_cost) << name << " v=" << v;
    }
    std::vector<std::uint8_t> repaired(n, 0);
    for (const Vertex s : scratch.repair16().agent_rows()) repaired[s] = 1;

    std::vector<std::uint8_t> is_nbr(n, 0);
    is_nbr[v] = 1;
    for (const Vertex w : g.neighbors(v)) is_nbr[w] = 1;
    // The max far filter rules out non-improving candidates only. The sum
    // scan's unmasked bound also rules out a candidate that cannot beat the
    // best so far, which is never better than the scan's final best.
    const std::uint64_t floor = model == UsageCost::Sum && dev ? dev->cost_after : old_cost;
    for (Vertex y = 0; y < n; ++y) {
      if (is_nbr[y] != 0 || repaired[y] != 0) continue;
      // y's row was never repaired — every swap toward y must be
      // non-improving, or (sum) no better than the scan's best.
      for (const Vertex w : g.neighbors(v)) {
        Graph h = g;
        apply_swap(h, EdgeSwap{v, w, y});
        const std::uint64_t after = vertex_cost(h, v, model, ws);
        EXPECT_GE(after, floor)
            << name << ": pruned candidate improves — v=" << v << " remove=" << w
            << " add=" << y << " old=" << old_cost << " new=" << after;
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(RowCache, PruneSoundnessTorusMax) {
  check_prune_soundness(rotated_torus(4).graph(), UsageCost::Max, "torus4/max");
}

TEST(RowCache, PruneSoundnessTorusSum) {
  check_prune_soundness(rotated_torus(4).graph(), UsageCost::Sum, "torus4/sum");
}

TEST(RowCache, PruneSoundnessGnm) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Xoshiro256ss rng(seed * 13);
    const Graph g = random_connected_gnm(30, 60, rng);
    check_prune_soundness(g, UsageCost::Max, "gnm/max seed=" + std::to_string(seed));
    check_prune_soundness(g, UsageCost::Sum, "gnm/sum seed=" + std::to_string(seed));
  }
}

// ------------------------------------------------------------ facade

// The Instance facade must route RunConfig.resources into the same
// budgeted machinery (same bytes as the free-function path).
TEST(RowCache, FacadeRoutesBudget) {
  const Instance inst = Instance::torus(5);
  RunConfig run;
  run.model = UsageCost::Max;
  run.include_deletions = true;
  const ShardedCertificate dense = inst.certify(run);
  RunConfig capped = run;
  capped.resources.mem_budget = forcing_budget(inst.num_vertices());
  const ShardedCertificate budgeted = inst.certify(capped);
  expect_cert_eq(dense, budgeted, "facade torus5");
  EXPECT_TRUE(dense.certificate.is_equilibrium);
}

}  // namespace
}  // namespace bncg
