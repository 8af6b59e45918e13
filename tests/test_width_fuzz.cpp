// Differential fuzz suite for the width-adaptive u8/u16 distance kernels
// (graph/dist_width.hpp): over 200 seeded random and paper-construction
// instances, the u8 and u16 SwapEngine/SearchState paths (the state in the
// sum model, which is all it evaluates) must agree bit for bit with each
// other and with the bncg::naive oracles — on unrest values,
// deviation witnesses, certification verdicts, and whole annealing
// trajectories — including instances engineered to cross the u8 cap
// mid-run, which forces the SearchState promotion path and the engine's
// per-agent u16 fallback. Compiled into the seeded property harness
// (bncg_property_tests, CTest label "tier1-property": matched by both
// `ctest -L tier1` and `ctest -L property`).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/equilibrium.hpp"
#include "core/search.hpp"
#include "core/search_state.hpp"
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
/// deliberately shares no code with SearchState or SwapEngine.
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
/// the engineered promotion crossings. Needs len ≥ 64 so a distance > 61
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

TEST(WidthFuzz, SearchStateWidthsAgreeOnEveryProposalAndWithNaive) {
  // 64 instances: a forced-u8 and a forced-u16 SearchState driven through
  // the same toggle schedule must report identical shapes and unrest on
  // every proposal (accepted AND rejected), both equal to the naive
  // recomputation on a mirror graph.
  Xoshiro256ss rng(0xF002);
  for (int trial = 0; trial < 64; ++trial) {
    Graph mirror = fuzz_instance(trial, rng);
    const Vertex n = mirror.num_vertices();
    SearchState s8(mirror, /*parallel=*/trial % 4 < 2, WidthPolicy::ForceU8);
    SearchState s16(mirror, /*parallel=*/trial % 4 < 2, WidthPolicy::ForceU16);
    ASSERT_EQ(s16.width(), DistWidth::U16);
    ASSERT_EQ(s8.unrest(), s16.unrest()) << "trial " << trial;
    ASSERT_EQ(s8.unrest(), naive_unrest(mirror, UsageCost::Sum, false)) << "trial " << trial;

    for (int step = 0; step < 12; ++step) {
      const Vertex u = static_cast<Vertex>(rng.below(n));
      const Vertex v = static_cast<Vertex>(rng.below(n));
      if (u == v) continue;
      const ToggleShape sh8 = s8.propose_toggle(u, v);
      const ToggleShape sh16 = s16.propose_toggle(u, v);
      ASSERT_EQ(sh8.connected, sh16.connected) << "trial " << trial << " step " << step;
      ASSERT_EQ(sh8.diameter, sh16.diameter) << "trial " << trial << " step " << step;

      Graph toggled = mirror;
      if (toggled.has_edge(u, v)) {
        toggled.remove_edge(u, v);
      } else {
        toggled.add_edge(u, v);
      }
      const std::uint64_t want = naive_unrest(toggled, UsageCost::Sum, false);
      ASSERT_EQ(s8.proposal_unrest(), want) << "trial " << trial << " step " << step;
      ASSERT_EQ(s16.proposal_unrest(), want) << "trial " << trial << " step " << step;

      if (rng.bernoulli(0.5)) {
        s8.commit();
        s16.commit();
        mirror = std::move(toggled);
        ASSERT_EQ(s8.graph(), mirror);
        ASSERT_EQ(s16.graph(), mirror);
      }
    }
    EXPECT_EQ(s8.unrest(), s16.unrest()) << "trial " << trial;
  }
}

TEST(WidthFuzz, EngineeredCapCrossingsPromoteAndStayExact) {
  // Three deterministic promotion triggers, each checked against naive and
  // a from-scratch u16 state:
  //  (a) masked-matrix saturation during evaluation — C_len + chord {0,
  //      len/2}: the full graph fits u8, but masking a chord endpoint
  //      leaves a path of length len − 2 > 61;
  //  (b) proposal-screen saturation by an addition — bridging two paths
  //      through the pure-formula addition identity;
  //  (c) proposal-screen saturation by a removal — staging the deletion
  //      of a C_len cycle edge (P_len has diameter len − 1 > 61) saturates
  //      the shadow full matrix, and the committed state must equal a u16
  //      state built on the post-move graph.
  // Every leg runs through propose → proposal_unrest → commit, in the sum
  // model (the only one the state evaluates).
  const UsageCost model = UsageCost::Sum;
  const bool deletions = false;
  for (const Vertex len : {Vertex{100}, Vertex{120}}) {
    const std::string ctx = "len " + std::to_string(len);

    {  // (a) — evaluation pass must promote, then match naive exactly.
      const Graph g = chorded_cycle(len);
      SearchState state(g);
      ASSERT_EQ(state.width(), DistWidth::U8) << ctx;  // auto-selected narrow
      const std::uint64_t u = state.unrest();
      EXPECT_EQ(state.width(), DistWidth::U16) << ctx;
      EXPECT_GE(state.stats().promotions, 1u) << ctx;
      EXPECT_EQ(u, naive_unrest(g, model, deletions)) << ctx;
    }

    {  // (b) — *addition* saturation: bridging two path components makes
       // the new finite distances exceed the cap through the pure-formula
       // addition identity (no BFS involved), which must promote rather
       // than clamp to ∞ or write the reserved kInf − 1 slot.
      Graph two_paths(len);
      const Vertex half = len / 2;
      for (Vertex i = 0; i + 1 < half; ++i) two_paths.add_edge(i, i + 1);
      for (Vertex i = half; i + 1 < len; ++i) two_paths.add_edge(i, i + 1);
      SearchState state(two_paths, /*parallel=*/true, WidthPolicy::ForceU8);
      ASSERT_EQ(state.width(), DistWidth::U8) << ctx;
      // Joins the tips: diameter len − 1 > 61.
      const ToggleShape shape = state.propose_toggle(half - 1, half);
      EXPECT_EQ(state.width(), DistWidth::U16) << ctx;
      EXPECT_GE(state.stats().promotions, 1u) << ctx;
      EXPECT_TRUE(shape.connected) << ctx;
      EXPECT_EQ(shape.diameter, len - 1) << ctx;
      two_paths.add_edge(half - 1, half);
      const std::uint64_t want = naive_unrest(two_paths, model, deletions);
      EXPECT_EQ(state.proposal_unrest(), want) << ctx;
      state.commit();
      EXPECT_TRUE(state.connected()) << ctx;
      EXPECT_EQ(state.diameter(), len - 1) << ctx;
      EXPECT_EQ(state.unrest(), want) << ctx;
    }

    {  // (b') — a bridging addition whose result still fits must NOT
       // promote and must stay exact (the saturation test is not a
       // connectivity-change test).
      const Vertex quarter = 15;
      Graph short_paths(2 * quarter);
      for (Vertex i = 0; i + 1 < quarter; ++i) short_paths.add_edge(i, i + 1);
      for (Vertex i = quarter; i + 1 < 2 * quarter; ++i) short_paths.add_edge(i, i + 1);
      SearchState state(short_paths, /*parallel=*/true, WidthPolicy::ForceU8);
      (void)state.propose_toggle(quarter - 1, quarter);
      short_paths.add_edge(quarter - 1, quarter);
      EXPECT_EQ(state.proposal_unrest(), naive_unrest(short_paths, model, deletions)) << ctx;
      state.commit();
      EXPECT_EQ(state.width(), DistWidth::U8) << ctx;
      EXPECT_EQ(state.diameter(), 2 * quarter - 1) << ctx;
      EXPECT_EQ(state.unrest(), naive_unrest(short_paths, model, deletions)) << ctx;
    }

    {  // (c) — the proposal screen itself promotes; shape, proposal
       // unrest, and the committed state must all be exact.
      const Graph g = cycle(len);
      SearchState state(g);
      ASSERT_EQ(state.width(), DistWidth::U8) << ctx;
      const ToggleShape shape = state.propose_toggle(0, len - 1);
      EXPECT_EQ(state.width(), DistWidth::U16) << ctx;
      EXPECT_TRUE(shape.connected) << ctx;
      EXPECT_EQ(shape.diameter, len - 1) << ctx;
      Graph toggled = g;
      toggled.remove_edge(0, len - 1);
      EXPECT_EQ(state.proposal_unrest(), naive_unrest(toggled, model, deletions)) << ctx;
      state.commit();
      EXPECT_EQ(state.graph(), toggled) << ctx;
      SearchState fresh(toggled, true, WidthPolicy::ForceU16);
      EXPECT_EQ(state.unrest(), fresh.unrest()) << ctx;
      for (const Vertex a : {Vertex{0}, Vertex{1}, len / 2}) {
        const SearchState::ScanTables got = state.debug_scan_tables(a);
        const SearchState::ScanTables want = fresh.debug_scan_tables(a);
        EXPECT_EQ(got.min1, want.min1) << ctx << " agent " << a;
        EXPECT_EQ(got.min2, want.min2) << ctx << " agent " << a;
        EXPECT_EQ(got.argmin, want.argmin) << ctx << " agent " << a;
        EXPECT_EQ(got.r1, want.r1) << ctx << " agent " << a;
      }
    }
  }
}

TEST(WidthFuzz, AutoWidthSelectorPicksTheFittingWidth) {
  // Narrow when the diameter bound fits, wide when the screen rules it out;
  // ForceU8 on an unfitting instance burns, records the crossing, and lands
  // on u16 with exact results.
  SearchState narrow(cycle(100));
  EXPECT_EQ(narrow.width(), DistWidth::U8);
  SearchState wide(path(100));
  EXPECT_EQ(wide.width(), DistWidth::U16);
  EXPECT_EQ(wide.stats().promotions, 0u);  // screened out, no burned attempt

  const Graph p = path(100);
  SearchState forced(p, true, WidthPolicy::ForceU8);
  EXPECT_EQ(forced.width(), DistWidth::U16);
  EXPECT_EQ(forced.stats().promotions, 1u);
  EXPECT_EQ(forced.unrest(), naive_unrest(p, UsageCost::Sum, false));
}

TEST(WidthFuzz, AnnealTrajectoriesIdenticalAcrossWidthsIncludingPromotion) {
  // The same AnnealConfig run at ForceU8 and ForceU16 must walk one
  // trajectory — same counters, same outcome — even when the sum model's u8
  // leg crosses the cap mid-anneal (the chorded-cycle start makes cycle-edge
  // removal proposals saturate the state's shadow matrix during the shape
  // screen). The max legs run on the engine, whose u8 scans fall back per
  // agent instead of promoting.
  struct Case {
    Graph start;
    std::uint64_t steps;
    bool expect_promotion;
  };
  Xoshiro256ss rng(0xF003);
  std::vector<Case> cases;
  cases.push_back({chorded_cycle(96), 220, true});
  cases.push_back({random_connected_gnm(14, 26, rng), 300, false});
  cases.push_back({random_connected_gnm(10, 14, rng), 300, false});
  std::uint64_t promotions_seen = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
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
      EXPECT_EQ(st16.width_promotions, 0u) << ctx;
      promotions_seen += st8.width_promotions;
      if (cases[i].expect_promotion && model == UsageCost::Sum) {
        EXPECT_EQ(st8.dist_width, DistWidth::U16) << ctx << " (no cap crossing hit)";
      }
    }
  }
  EXPECT_GT(promotions_seen, 0u);  // the promotion path must have been annealed through
}

TEST(WidthFuzz, PromotionReplayReproducesIdenticalScanTables) {
  // Promotion-invariant property: drive a u8 state through a sequence of
  // committed toggles that crosses the cap mid-sequence, then commit the
  // identical sequence on a from-scratch u16 state — every agent's scan
  // tables (min1/min2/argmin and R1), widened to width-independent values,
  // must be identical, as must unrest.
  const Graph start = cycle(80);
  // The journal: add a chord, then cross the cap by deleting the cycle
  // edge {0, 79} — the leftover path-plus-chord has d(10, 79) = 69 > 61 —
  // and keep editing after the promotion.
  const std::vector<std::pair<Vertex, Vertex>> journal = {
      {1, 20},   // addition (chord)
      {0, 79},   // removal of a cycle edge: distances reach 69 → promotes
      {2, 50},   // addition after promotion
      {1, 20},   // removal again (toggle the chord back off)
  };
  SearchState promoted(start, /*parallel=*/true, WidthPolicy::ForceU8);
  ASSERT_EQ(promoted.width(), DistWidth::U8);
  SearchState wide(start, /*parallel=*/true, WidthPolicy::ForceU16);
  for (const auto& [u, v] : journal) {
    for (SearchState* state : {&promoted, &wide}) {
      (void)state->propose_toggle(u, v);
      (void)state->proposal_unrest();
      state->commit();
    }
  }
  EXPECT_EQ(promoted.width(), DistWidth::U16) << "journal failed to cross the cap";
  EXPECT_GE(promoted.stats().promotions, 1u);
  ASSERT_EQ(promoted.graph(), wide.graph());

  EXPECT_EQ(promoted.unrest(), wide.unrest());
  for (Vertex a = 0; a < promoted.num_vertices(); ++a) {
    const SearchState::ScanTables got = promoted.debug_scan_tables(a);
    const SearchState::ScanTables want = wide.debug_scan_tables(a);
    ASSERT_EQ(got.min1, want.min1) << "agent " << a;
    ASSERT_EQ(got.min2, want.min2) << "agent " << a;
    ASSERT_EQ(got.argmin, want.argmin) << "agent " << a;
    ASSERT_EQ(got.r1, want.r1) << "agent " << a;
  }
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
