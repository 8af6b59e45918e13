// Differential fuzz suite for the width-adaptive u8/u16 distance kernels
// (graph/dist_width.hpp): over 200 seeded random and paper-construction
// instances, the u8 and u16 SwapEngine paths must agree bit for bit with
// each other and with the bncg::naive oracles — on unrest values, scan
// tables, deviation witnesses, certification verdicts, and whole annealing
// trajectories — including instances engineered to cross the u8 cap
// mid-run, which forces the engine's per-agent u16 fallback. Compiled into the seeded property harness
// (bncg_property_tests, CTest label "tier1-property": matched by both
// `ctest -L tier1` and `ctest -L property`).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/equilibrium.hpp"
#include "core/search.hpp"
#include "core/swap_engine.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/connectivity.hpp"
#include "graph/metrics.hpp"
#include "lazy_width_rule.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

/// Reference unrest straight from the naive BFS-per-candidate oracles;
/// deliberately shares no code with SwapEngine.
std::uint64_t naive_unrest(const Graph& g, UsageCost model, bool include_deletions) {
  BfsWorkspace ws;
  std::uint64_t total = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::optional<Deviation> dev =
        model == UsageCost::Sum ? naive::best_sum_deviation(g, v, ws)
                                : naive::best_max_deviation(g, v, ws, include_deletions);
    if (!dev) continue;
    const std::uint64_t gain =
        dev->cost_before > dev->cost_after ? dev->cost_before - dev->cost_after : 0;
    total += std::max<std::uint64_t>(1, gain);
  }
  return total;
}

void expect_same_deviation(const std::optional<Deviation>& got,
                           const std::optional<Deviation>& want, const std::string& context) {
  ASSERT_EQ(got.has_value(), want.has_value()) << context;
  if (!got) return;
  EXPECT_EQ(got->swap.v, want->swap.v) << context;
  EXPECT_EQ(got->swap.remove_w, want->swap.remove_w) << context;
  EXPECT_EQ(got->swap.add_w, want->swap.add_w) << context;
  EXPECT_EQ(got->cost_before, want->cost_before) << context;
  EXPECT_EQ(got->cost_after, want->cost_after) << context;
  EXPECT_EQ(got->kind, want->kind) << context;
}

/// Mixed instance pool: random families plus the paper's constructions and
/// the classics — small enough for the naive oracle, varied enough to cover
/// trees, dense graphs, cap-adjacent diameters, and disconnection-prone
/// sparsity.
Graph fuzz_instance(int trial, Xoshiro256ss& rng) {
  switch (trial % 8) {
    case 0: {
      const Vertex n = 6 + static_cast<Vertex>(rng.below(13));
      const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
      return random_connected_gnm(n, std::min<std::size_t>(max_edges, 12 + rng.below(24)), rng);
    }
    case 1:
      return random_tree(6 + static_cast<Vertex>(rng.below(13)), rng);
    case 2: {
      const Vertex n = 8 + static_cast<Vertex>(rng.below(11));
      return random_connected_gnm(n, n - 1 + rng.below(n), rng);
    }
    case 3:
      return fig3_diameter3_graph();
    case 4:
      return cycle(5 + static_cast<Vertex>(rng.below(14)));
    case 5:
      return path(6 + static_cast<Vertex>(rng.below(13)));
    case 6:
      return double_star(2 + static_cast<Vertex>(rng.below(4)),
                         2 + static_cast<Vertex>(rng.below(4)));
    default:
      return random_connected_gnm(10 + static_cast<Vertex>(rng.below(9)),
                                  20 + rng.below(20), rng);
  }
}

/// A small-diameter cycle-with-chord whose masked matrices blow past the u8
/// cap: C_len fits u8 (diameter ≤ len/4 + ~len/4), but deleting the chord's
/// detour or masking a chord endpoint leaves paths of length ≈ len − 1 —
/// the engineered cap crossings. Needs len ≥ 64 so a distance > 61
/// is reachable at all.
Graph chorded_cycle(Vertex len) {
  Graph g = cycle(len);
  g.add_edge(0, len / 2);
  return g;
}

TEST(WidthFuzz, EngineWidthsAgreeWithEachOtherAndNaive) {
  // 120 instances × both models: forced-u8 and forced-u16 engines must
  // produce identical witnesses, costs, move counts, and certificates, all
  // equal to the naive oracle. ForceU8 on instances that do not fit the cap
  // exercises the per-agent u16 fallback (width_fallbacks > 0) without any
  // observable difference.
  Xoshiro256ss rng(0xF001);
  BfsWorkspace ws;
  std::uint64_t fallbacks_seen = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const Graph g = fuzz_instance(trial, rng);
    SwapEngine e8(g, ResourceConfig{.width = WidthPolicy::ForceU8});
    SwapEngine e16(g, ResourceConfig{.width = WidthPolicy::ForceU16});
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const bool deletions = model == UsageCost::Max;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const std::string ctx = "trial " + std::to_string(trial) + " agent " +
                                std::to_string(v) +
                                (model == UsageCost::Sum ? " sum" : " max");
        std::uint64_t moves8 = 0;
        std::uint64_t moves16 = 0;
        SwapEngine::Scratch s8, s16;
        const auto d8 = e8.best_deviation(v, model, s8, deletions, &moves8);
        const auto d16 = e16.best_deviation(v, model, s16, deletions, &moves16);
        const auto naive_dev = model == UsageCost::Sum
                                   ? naive::best_sum_deviation(g, v, ws)
                                   : naive::best_max_deviation(g, v, ws, deletions);
        expect_same_deviation(d8, d16, ctx + " u8 vs u16");
        expect_same_deviation(d8, naive_dev, ctx + " u8 vs naive");
        EXPECT_EQ(moves8, moves16) << ctx;
      }
      ShardedCertifyConfig cfg;
      cfg.resources.width = WidthPolicy::ForceU8;
      const ShardedCertificate c8 = certify_sharded(g, model, deletions, cfg);
      cfg.resources.width = WidthPolicy::ForceU16;
      const ShardedCertificate c16 = certify_sharded(g, model, deletions, cfg);
      EXPECT_EQ(c8.certificate.is_equilibrium, c16.certificate.is_equilibrium)
          << "trial " << trial;
      EXPECT_EQ(c8.certificate.moves_checked, c16.certificate.moves_checked) << "trial " << trial;
      expect_same_deviation(c8.certificate.witness, c16.certificate.witness,
                            "certify trial " + std::to_string(trial));
      fallbacks_seen += c8.width_fallbacks;
    }
    fallbacks_seen += e8.width_fallbacks();
  }
  EXPECT_EQ(fallbacks_seen, 0u);  // the small pool fits u8 throughout

  // Beyond-the-cap instances: a forced-u8 engine must silently redo the
  // saturating agents at u16 and still match the oracle move for move, and
  // the fallbacks must follow the lazy rule (lazy_width_rule.hpp).
  // path(70) and cycle(130) saturate the u8 slab, so every agent falls
  // back; the chorded cycle fits it, and 98 of its 200 agent scans compute
  // or read a masked distance past the cap.
  struct Big {
    Graph g;
    const char* name;
    std::uint64_t fallbacks;  // sum + max with deletions
  };
  for (const auto& [g, name, pinned] : {Big{path(70), "path70", 140},
                                        Big{cycle(130), "cycle130", 260},
                                        Big{chorded_cycle(100), "chorded100", 98}}) {
    std::uint64_t fallbacks = 0;
    std::uint64_t want = 0;
    LazyWidthRule rule(g);
    ShardedCertifyConfig cfg;
    cfg.resources.width = WidthPolicy::ForceU8;
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const bool deletions = model == UsageCost::Max;
      const ShardedCertificate c8 = certify_sharded(g, model, deletions, cfg);
      const auto naive_cert = model == UsageCost::Sum ? naive::certify_sum_equilibrium(g)
                                                      : naive::certify_max_equilibrium(g);
      EXPECT_EQ(c8.certificate.is_equilibrium, naive_cert.is_equilibrium) << name;
      EXPECT_EQ(c8.certificate.moves_checked, naive_cert.moves_checked) << name;
      expect_same_deviation(c8.certificate.witness, naive_cert.witness, "big-instance certify");
      fallbacks += c8.width_fallbacks;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        rule.begin(v);
        want += rule.scan(model, deletions, /*stop_at_first=*/false) ? 1 : 0;
      }
    }
    EXPECT_EQ(fallbacks, want) << name;
    EXPECT_EQ(fallbacks, pinned) << name;
  }
}

/// Sum unrest as anneal evaluates it, on one engine at a forced width:
/// Σ_v of agent v's best-deviation gain (floored at 1, as naive_unrest).
/// Adds the engine's width fallbacks to *fallbacks when given.
std::uint64_t engine_sum_unrest(const Graph& g, WidthPolicy width,
                                std::uint64_t* fallbacks = nullptr) {
  const SwapEngine engine(g, ResourceConfig{.width = width});
  SwapEngine::Scratch scratch;
  std::uint64_t total = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::optional<Deviation> dev = engine.best_deviation(v, UsageCost::Sum, scratch);
    if (!dev) continue;
    const std::uint64_t gain =
        dev->cost_before > dev->cost_after ? dev->cost_before - dev->cost_after : 0;
    total += std::max<std::uint64_t>(1, gain);
  }
  if (fallbacks != nullptr) *fallbacks += engine.width_fallbacks();
  return total;
}

void toggle(Graph& g, Vertex u, Vertex v) {
  if (g.has_edge(u, v)) {
    g.remove_edge(u, v);
  } else {
    g.add_edge(u, v);
  }
}

TEST(WidthFuzz, SumUnrestWidthsAgreeOnEveryProposalAndWithNaive) {
  // 64 instances: the sum unrest of a forced-u8 and a forced-u16 engine,
  // through the same toggle schedule, must agree on every proposal
  // (accepted AND rejected) and equal the naive recomputation on a mirror
  // graph, and so must sum_unrest's pooled scan on connected proposals.
  Xoshiro256ss rng(0xF002);
  for (int trial = 0; trial < 64; ++trial) {
    Graph mirror = fuzz_instance(trial, rng);
    const Vertex n = mirror.num_vertices();
    ASSERT_EQ(engine_sum_unrest(mirror, WidthPolicy::ForceU8),
              naive_unrest(mirror, UsageCost::Sum, false))
        << "trial " << trial;

    for (int step = 0; step < 12; ++step) {
      const Vertex u = static_cast<Vertex>(rng.below(n));
      const Vertex v = static_cast<Vertex>(rng.below(n));
      if (u == v) continue;
      Graph toggled = mirror;
      toggle(toggled, u, v);
      const std::string ctx = "trial " + std::to_string(trial) + " step " + std::to_string(step);
      const std::uint64_t want = naive_unrest(toggled, UsageCost::Sum, false);
      ASSERT_EQ(engine_sum_unrest(toggled, WidthPolicy::ForceU8), want) << ctx;
      ASSERT_EQ(engine_sum_unrest(toggled, WidthPolicy::ForceU16), want) << ctx;
      if (is_connected(toggled)) ASSERT_EQ(sum_unrest(toggled), want) << ctx;
      if (rng.bernoulli(0.5)) mirror = std::move(toggled);
    }
  }
}

TEST(WidthFuzz, EngineeredCapCrossingsPromoteAndStayExact) {
  // Deterministic cap crossings of the sum scans anneal evaluates with,
  // each checked against naive: the engine promotes every agent that
  // crosses the u8 cap to a u16 redo (a width fallback), and nothing else.
  //  (a) masked saturation — C_len + chord {0, len/2}: the graph fits u8,
  //      but masking a chord endpoint leaves a path of length len − 2 > 61;
  //  (b) slab saturation by an addition — bridging two paths makes the
  //      diameter len − 1 > 61, so a forced-u8 engine's slab saturates and
  //      every agent is redone at u16;
  //  (b') a bridge whose result still fits must cross nothing;
  //  (c) slab saturation by a removal — deleting a C_len cycle edge
  //      leaves P_len, and the u8 engine must equal a u16 engine.
  const UsageCost model = UsageCost::Sum;
  const bool deletions = false;
  for (const Vertex len : {Vertex{100}, Vertex{120}}) {
    const std::string ctx = "len " + std::to_string(len);

    {  // (a)
      const Graph g = chorded_cycle(len);
      ASSERT_EQ(SwapEngine(g).preferred_width(), DistWidth::U8) << ctx;  // auto-selected narrow
      std::uint64_t fallbacks = 0;
      EXPECT_EQ(engine_sum_unrest(g, WidthPolicy::Auto, &fallbacks),
                naive_unrest(g, model, deletions))
          << ctx;
      EXPECT_GE(fallbacks, 1u) << ctx;
      EXPECT_LT(fallbacks, len) << ctx;
      EXPECT_EQ(sum_unrest(g), naive_unrest(g, model, deletions)) << ctx;
    }

    {  // (b)
      Graph two_paths(len);
      const Vertex half = len / 2;
      for (Vertex i = 0; i + 1 < half; ++i) two_paths.add_edge(i, i + 1);
      for (Vertex i = half; i + 1 < len; ++i) two_paths.add_edge(i, i + 1);
      two_paths.add_edge(half - 1, half);  // joins the tips: diameter len − 1 > 61
      ASSERT_EQ(diameter(two_paths), len - 1) << ctx;
      std::uint64_t fallbacks = 0;
      const std::uint64_t want = naive_unrest(two_paths, model, deletions);
      EXPECT_EQ(engine_sum_unrest(two_paths, WidthPolicy::ForceU8, &fallbacks), want) << ctx;
      EXPECT_EQ(fallbacks, len) << ctx;
      EXPECT_EQ(engine_sum_unrest(two_paths, WidthPolicy::ForceU16), want) << ctx;
    }

    {  // (b')
      const Vertex quarter = 15;
      Graph short_paths(2 * quarter);
      for (Vertex i = 0; i + 1 < quarter; ++i) short_paths.add_edge(i, i + 1);
      for (Vertex i = quarter; i + 1 < 2 * quarter; ++i) short_paths.add_edge(i, i + 1);
      short_paths.add_edge(quarter - 1, quarter);
      std::uint64_t fallbacks = 0;
      EXPECT_EQ(engine_sum_unrest(short_paths, WidthPolicy::ForceU8, &fallbacks),
                naive_unrest(short_paths, model, deletions))
          << ctx;
      EXPECT_EQ(fallbacks, 0u) << ctx;
    }

    {  // (c)
      Graph toggled = cycle(len);
      toggled.remove_edge(0, len - 1);
      std::uint64_t fallbacks = 0;
      const std::uint64_t got = engine_sum_unrest(toggled, WidthPolicy::ForceU8, &fallbacks);
      EXPECT_EQ(fallbacks, len) << ctx;
      EXPECT_EQ(got, engine_sum_unrest(toggled, WidthPolicy::ForceU16)) << ctx;
      EXPECT_EQ(got, naive_unrest(toggled, model, deletions)) << ctx;
    }
  }
}

TEST(WidthFuzz, AutoWidthSelectorPicksTheFittingWidth) {
  // Narrow when the diameter bound fits, wide when the probe rules it out;
  // ForceU8 on an unfitting instance saturates the u8 slab, redoes every
  // agent at u16 and stays exact.
  EXPECT_EQ(SwapEngine(cycle(60)).preferred_width(), DistWidth::U8);  // 2 · ecc(0) = 60
  EXPECT_EQ(SwapEngine(path(100)).preferred_width(), DistWidth::U16);

  const Graph p = path(100);
  std::uint64_t fallbacks = 0;
  EXPECT_EQ(engine_sum_unrest(p, WidthPolicy::ForceU8, &fallbacks),
            naive_unrest(p, UsageCost::Sum, false));
  EXPECT_EQ(fallbacks, 100u);
  EXPECT_EQ(engine_sum_unrest(p, WidthPolicy::Auto, &fallbacks),
            naive_unrest(p, UsageCost::Sum, false));
  EXPECT_EQ(fallbacks, 100u);  // auto-selected u16: no fallback
}

TEST(WidthFuzz, AnnealTrajectoriesIdenticalAcrossWidthsIncludingPromotion) {
  // The same AnnealConfig run at ForceU8 and ForceU16 must walk one
  // trajectory — same counters, same outcome — even when the u8 scans
  // cross the cap mid-anneal: on the chorded-cycle start, masking a chord
  // endpoint leaves distances past the cap, so those agents' u8 scans are
  // redone at u16 (checked up front on the start graph).
  struct Case {
    Graph start;
    std::uint64_t steps;
    bool crosses_cap;
  };
  Xoshiro256ss rng(0xF003);
  std::vector<Case> cases;
  cases.push_back({chorded_cycle(96), 220, true});
  cases.push_back({random_connected_gnm(14, 26, rng), 300, false});
  cases.push_back({random_connected_gnm(10, 14, rng), 300, false});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::uint64_t fallbacks = 0;
    (void)engine_sum_unrest(cases[i].start, WidthPolicy::ForceU8, &fallbacks);
    EXPECT_EQ(fallbacks > 0, cases[i].crosses_cap) << "case " << i;
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      AnnealConfig config;
      config.cost = model;
      config.steps = cases[i].steps;
      config.seed = 0x5EEDF + i;
      config.target_diameter = diameter(cases[i].start);

      AnnealStats st8, st16;
      config.resources.width = WidthPolicy::ForceU8;
      const auto r8 = anneal_equilibrium(cases[i].start, config, &st8);
      config.resources.width = WidthPolicy::ForceU16;
      const auto r16 = anneal_equilibrium(cases[i].start, config, &st16);

      const std::string ctx = "case " + std::to_string(i) +
                              (model == UsageCost::Sum ? " sum" : " max");
      ASSERT_EQ(r8.has_value(), r16.has_value()) << ctx;
      if (r8) EXPECT_EQ(*r8, *r16) << ctx;
      EXPECT_EQ(st8.proposals, st16.proposals) << ctx;
      EXPECT_EQ(st8.filtered, st16.filtered) << ctx;
      EXPECT_EQ(st8.evaluated, st16.evaluated) << ctx;
      EXPECT_EQ(st8.accepted, st16.accepted) << ctx;
      EXPECT_EQ(st8.final_unrest, st16.final_unrest) << ctx;
      EXPECT_EQ(st8.final_fingerprint, st16.final_fingerprint) << ctx;
      EXPECT_EQ(st8.dist_width, DistWidth::U8) << ctx;
      EXPECT_EQ(st16.dist_width, DistWidth::U16) << ctx;
    }
  }
}

/// Entries of a scan table at width `Dist`, with the width's infinity read
/// as kInfDist, so tables of both widths compare directly.
template <typename Dist>
std::vector<Vertex> widened(std::span<const Dist> row, Dist inf) {
  std::vector<Vertex> out(row.size());
  for (std::size_t i = 0; i < row.size(); ++i) out[i] = row[i] >= inf ? kInfDist : row[i];
  return out;
}

TEST(WidthFuzz, PromotionReplayReproducesIdenticalScanTables) {
  // Replay a journal of toggles that crosses the cap mid-sequence, and
  // after every step hold a forced-u8 engine to a forced-u16 one: wherever
  // the u8 fold fits, every agent's scan tables (min1/min2/argmin, widened
  // to width-independent values) are identical; once the u8 slab
  // saturates, no u8 fold is produced and every scan is promoted to u16;
  // and the sum unrest agrees throughout.
  Graph g = cycle(80);
  // The journal: add a chord, then cross the cap by deleting the cycle
  // edge {0, 79} — the leftover path-plus-chord has d(10, 79) = 69 > 61 —
  // and keep editing after the crossing.
  const std::vector<std::pair<Vertex, Vertex>> journal = {
      {1, 20},   // addition (chord)
      {0, 79},   // removal of a cycle edge: distances reach 69
      {2, 50},   // addition after the crossing
      {1, 20},   // removal again (toggle the chord back off)
  };
  bool crossed = false;
  for (const auto& [u, v] : journal) {
    toggle(g, u, v);
    const std::string ctx = "after {" + std::to_string(u) + ", " + std::to_string(v) + "}";
    const SwapEngine e8(g, ResourceConfig{.width = WidthPolicy::ForceU8});
    const SwapEngine e16(g, ResourceConfig{.width = WidthPolicy::ForceU16});
    SwapEngine::Scratch s8, s16;
    for (Vertex a = 0; a < g.num_vertices(); ++a) {
      const auto want = e16.fold_agent<std::uint16_t>(a, s16);
      ASSERT_TRUE(want.has_value()) << ctx;
      const auto got = e8.fold_agent<std::uint8_t>(a, s8);
      if (!got) {
        crossed = true;
        continue;
      }
      ASSERT_EQ(widened(got->min1, kSearchInf8), widened(want->min1, kInfDist16))
          << ctx << " agent " << a;
      ASSERT_EQ(widened(got->min2, kSearchInf8), widened(want->min2, kInfDist16))
          << ctx << " agent " << a;
      ASSERT_TRUE(std::equal(got->argmin.begin(), got->argmin.end(), want->argmin.begin(),
                             want->argmin.end()))
          << ctx << " agent " << a;
    }
    EXPECT_EQ(engine_sum_unrest(g, WidthPolicy::ForceU8),
              engine_sum_unrest(g, WidthPolicy::ForceU16))
        << ctx;
  }
  EXPECT_TRUE(crossed) << "journal failed to cross the cap";
}

TEST(WidthFuzz, ShardedCertifyAgreesAcrossWidths) {
  // The sharded driver inherits the engine's width adaptivity; u8 and u16
  // runs must produce identical certificates on the same shards.
  Xoshiro256ss rng(0xF004);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = fuzz_instance(trial, rng);
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const bool deletions = model == UsageCost::Max;
      ShardedCertifyConfig cfg;
      cfg.shards = 3;
      cfg.resources.width = WidthPolicy::ForceU8;
      const auto c8 = certify_sharded(g, model, deletions, cfg);
      cfg.resources.width = WidthPolicy::ForceU16;
      const auto c16 = certify_sharded(g, model, deletions, cfg);
      EXPECT_EQ(c8.certificate.is_equilibrium, c16.certificate.is_equilibrium);
      EXPECT_EQ(c8.certificate.moves_checked, c16.certificate.moves_checked);
      expect_same_deviation(c8.certificate.witness, c16.certificate.witness,
                            "sharded trial " + std::to_string(trial));
    }
  }
}

}  // namespace
}  // namespace bncg
