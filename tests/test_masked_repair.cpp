// Masked rows by repair (graph/masked_repair.hpp, DESIGN.md §17): every
// repaired row — unmasked row plus the agent's patches — must
// equal the literal masked APSP of G − v on every entry u ≠ v, at both
// storage widths; the engine's fold of the unmasked neighbor rows must equal
// the fold of the materialized masked rows entry for entry (DESIGN.md §3);
// the dense scans built on the repair must match the naive oracle per agent
// (verdict, witness, move count) at u8 and u16 and at both SIMD extremes;
// and the width-fallback count must follow the lazy rule, recomputed by BFS
// (lazy_width_rule.hpp), on the instances that exercise it. CMakeLists pins
// the MaskedRepair* filter at BNCG_THREADS 1 and 4 — the slab is built on
// the pool and read by every lane.
#include "graph/masked_repair.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/equilibrium.hpp"
#include "core/kstability.hpp"
#include "core/swap_engine.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/dist_width.hpp"
#include "lazy_width_rule.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace bncg {
namespace {

struct Named {
  std::string name;
  Graph g;
};

Graph relabeled(const Graph& native, Xoshiro256ss& rng) {
  const Vertex n = native.num_vertices();
  std::vector<Vertex> label(n);
  std::iota(label.begin(), label.end(), Vertex{0});
  rng.shuffle(label);
  Graph g(n);
  for (Vertex v = 0; v < n; ++v) {
    for (const Vertex w : native.neighbors(v)) {
      if (v < w) g.add_edge(label[v], label[w]);
    }
  }
  return g;
}

/// A random tree plus `extra` random chords: pendant vertices and cut
/// vertices everywhere, so masking often sends whole components to ∞.
Graph near_tree(Vertex n, int extra, Xoshiro256ss& rng) {
  Graph g = random_tree(n, rng);
  for (int i = 0; i < extra; ++i) {
    const Vertex a = static_cast<Vertex>(rng.below(n));
    const Vertex b = static_cast<Vertex>(rng.below(n));
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b);
  }
  return g;
}

/// Path 0..61 with `bristles` leaves on vertex 61: the only pairs beyond
/// the u8 cap are (0, leaf), all through agent 0.
Graph broom(Vertex bristles) {
  Graph g = path(62);
  for (Vertex i = 0; i < bristles; ++i) {
    g.add_vertex();
    g.add_edge(61, 62 + i);
  }
  return g;
}

/// A path of `len` vertices plus a hub adjacent to every `every`-th one:
/// the unmasked diameter is small, but masking the hub leaves the bare
/// path, whose distances overflow u8.
Graph hub_path(Vertex len, Vertex every) {
  Graph g = path(len);
  const Vertex hub = g.add_vertex();
  for (Vertex i = 0; i < len; i += every) g.add_edge(hub, i);
  return g;
}

std::vector<Named> corpus(std::uint64_t seed, bool small) {
  Xoshiro256ss rng(seed);
  std::vector<Named> out;
  const Vertex scale = small ? 1 : 2;
  for (const Vertex n : {Vertex{9}, Vertex{17 * scale}, Vertex{31 * scale}}) {
    for (const std::size_t m : {std::size_t{n}, std::size_t{3} * n / 2, std::size_t{2} * n}) {
      out.push_back({"gnm" + std::to_string(n) + "_" + std::to_string(m),
                     random_connected_gnm(n, m, rng)});
    }
    out.push_back({"near_tree" + std::to_string(n), near_tree(n, 2, rng)});
    out.push_back({"tree" + std::to_string(n), random_tree(n, rng)});
  }
  out.push_back({"gnm_disconnected", random_gnm(24, 20, rng)});
  out.push_back({"torus3", relabeled(rotated_torus(3).graph(), rng)});
  out.push_back({"torus4", relabeled(rotated_torus(4).graph(), rng)});
  if (!small) out.push_back({"torus6", relabeled(rotated_torus(6).graph(), rng)});
  out.push_back({"star", star(13)});
  out.push_back({"path", path(15)});
  out.push_back({"cycle", cycle(16)});
  out.push_back({"lollipop", lollipop(5, 6)});
  return out;
}

/// The engine's encodings: capped u8 (finite ≤ 61), full-range u16.
template <typename Dist>
constexpr Dist inf_of() {
  return static_cast<Dist>(sizeof(Dist) == 1 ? kSearchInf8 : kInfDist16);
}

template <typename Dist>
constexpr Dist max_finite_of() {
  return static_cast<Dist>(sizeof(Dist) == 1 ? kMaxFiniteFor<std::uint8_t> : kInfDist16 - 1);
}

/// Repairs every row of the n×n unmasked slab `slab`; false as soon as one
/// saturates.
template <typename Dist>
bool repair_every_row(MaskedRowRepair<Dist>& repair, const Dist* slab, Vertex n) {
  for (Vertex x = 0; x < n; ++x) {
    if (!repair.repair(x, slab + static_cast<std::size_t>(x) * n)) return false;
  }
  return true;
}

/// Every repaired row of every agent against the literal masked APSP.
/// Returns the number of agents checked (0 when the unmasked slab itself
/// does not fit the width).
template <typename Dist>
int check_rows(const Named& inst) {
  constexpr Dist kInf = inf_of<Dist>();
  constexpr Dist kMax = max_finite_of<Dist>();
  const CsrGraph csr(inst.g);
  const Vertex n = csr.num_vertices();
  const std::size_t cells = static_cast<std::size_t>(n) * n;
  AlignedVec<Dist> slab(cells), masked(cells);
  std::vector<Dist> row(n);
  BatchBfsWorkspace ws;
  if (!build_unmasked_slab<Dist>(csr, slab.data(), kInf, kMax)) return 0;
  MaskedRowRepair<Dist> repair;
  int agents = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::string ctx = inst.name + " w=" + std::to_string(sizeof(Dist) * 8) + " v=" +
                            std::to_string(v);
    const bool masked_fits = csr_apsp_capped<Dist>(csr, MaskedEdge{}, masked.data(), ws, v, kInf,
                                                   kMax);
    repair.begin(csr, v, kInf, kMax);
    const bool repaired = repair_every_row(repair, slab.data(), n);
    EXPECT_EQ(repaired, masked_fits) << ctx;
    if (!repaired || !masked_fits) continue;
    ++agents;
    std::size_t changed = 0;
    std::uint32_t affected = 0;
    for (Vertex x = 0; x < n; ++x) {
      if (x == v) continue;
      const Dist* unmasked = slab.data() + static_cast<std::size_t>(x) * n;
      EXPECT_TRUE(repair.materialize(x, unmasked, row.data())) << ctx;
      const Dist* want = masked.data() + static_cast<std::size_t>(x) * n;
      bool row_changed = false;
      for (Vertex u = 0; u < n; ++u) {
        if (u == v) continue;
        EXPECT_EQ(row[u], want[u]) << ctx << " x=" << x << " u=" << u;
        const bool differs = unmasked[u] != want[u];
        changed += differs ? 1 : 0;
        row_changed |= differs;
      }
      affected += row_changed ? 1 : 0;
      // Patches are exactly the changed entries, each strictly longer.
      const auto patches = repair.repair(x, unmasked);
      for (const auto& p : *patches) {
        EXPECT_NE(p.u, v) << ctx;
        EXPECT_GT(p.d, unmasked[p.u]) << ctx;
      }
    }
    EXPECT_TRUE(repair.repair(v, slab.data() + static_cast<std::size_t>(v) * n)->empty()) << ctx;
    EXPECT_EQ(repair.changed_entries(), changed) << ctx;
    EXPECT_EQ(repair.affected_rows(), affected) << ctx;
  }
  return agents;
}

TEST(MaskedRepair, RowsMatchMaskedApspBothWidths) {
  int u8_agents = 0;
  int u16_agents = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Named& inst : corpus(seed * 0x9e37, /*small=*/false)) {
      u8_agents += check_rows<std::uint8_t>(inst);
      u16_agents += check_rows<std::uint16_t>(inst);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(u8_agents, 0);
  EXPECT_EQ(u8_agents, u16_agents);  // the whole corpus fits u8
  // Lost sets beyond 32 vertices: the leaf rows of a star's centre (one
  // key) and the rows of a hub path's hub (keys across the path).
  for (const Named& inst : {Named{"star60", star(60)}, Named{"hub_path", hub_path(120, 10)}}) {
    EXPECT_EQ(check_rows<std::uint16_t>(inst), static_cast<int>(inst.g.num_vertices()));
  }
}

TEST(MaskedRepair, RowsSaturateExactlyWhenTheMaskedMatrixDoes) {
  // Cycles beyond 2·61 and long chorded cycles: the unmasked u16 slab fits
  // and the per-agent repair reports u8 saturation exactly when the masked
  // matrix does — both from the u8 slab (C₆₄: fits unmasked, every mask
  // saturates) and at u16, where nothing saturates.
  Graph chorded = cycle(100);
  chorded.add_edge(0, 50);
  for (const Named& inst : {Named{"cycle64", cycle(64)}, Named{"cycle40", cycle(40)},
                            Named{"chorded100", chorded}, Named{"broom", broom(3)}}) {
    (void)check_rows<std::uint8_t>(inst);
    EXPECT_EQ(check_rows<std::uint16_t>(inst), static_cast<int>(inst.g.num_vertices()));
  }
}

/// Row-by-row patches of an all-rows repair of agent v (empty when it
/// saturates).
template <typename Dist>
std::vector<std::vector<MaskedPatch<Dist>>> all_rows(MaskedRowRepair<Dist>& repair,
                                                     const CsrGraph& csr, const Dist* slab,
                                                     Vertex v) {
  repair.begin(csr, v, inf_of<Dist>(), max_finite_of<Dist>());
  if (!repair_every_row(repair, slab, csr.num_vertices())) return {};
  std::vector<std::vector<MaskedPatch<Dist>>> rows(csr.num_vertices());
  for (Vertex x = 0; x < csr.num_vertices(); ++x) {
    const auto patches = repair.repair(x, slab + static_cast<std::size_t>(x) * csr.num_vertices());
    rows[x].assign(patches->begin(), patches->end());
  }
  return rows;
}

/// On-demand repair in a shuffled row order, repeated calls included, must
/// give every row the patches of the all-rows repair; it saturates on some
/// row exactly when the all-rows repair does. Returns the agents compared.
template <typename Dist>
int check_on_demand(const Named& inst, Xoshiro256ss& rng) {
  const CsrGraph csr(inst.g);
  const Vertex n = csr.num_vertices();
  AlignedVec<Dist> slab(static_cast<std::size_t>(n) * n);
  if (!build_unmasked_slab<Dist>(csr, slab.data(), inf_of<Dist>(), max_finite_of<Dist>())) {
    return 0;
  }
  MaskedRowRepair<Dist> eager;
  MaskedRowRepair<Dist> lazy;
  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), Vertex{0});
  int agents = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::string ctx = inst.name + " w=" + std::to_string(sizeof(Dist) * 8) + " v=" +
                            std::to_string(v);
    const auto want = all_rows(eager, csr, slab.data(), v);
    rng.shuffle(order);
    lazy.begin(csr, v, inf_of<Dist>(), max_finite_of<Dist>());
    EXPECT_TRUE(lazy.agent_rows().empty()) << ctx;
    EXPECT_EQ(lazy.changed_entries(), 0u) << ctx;
    bool saturated = false;
    for (const Vertex x : order) {
      const Dist* unmasked = slab.data() + static_cast<std::size_t>(x) * n;
      const auto patches = lazy.repair(x, unmasked);
      if (!patches) {
        saturated = true;
        continue;
      }
      if (want.empty()) continue;
      const std::vector<MaskedPatch<Dist>> got(patches->begin(), patches->end());
      EXPECT_EQ(got.size(), want[x].size()) << ctx << " x=" << x;
      for (std::size_t i = 0; i < std::min(got.size(), want[x].size()); ++i) {
        EXPECT_EQ(got[i].u, want[x][i].u) << ctx << " x=" << x;
        EXPECT_EQ(got[i].d, want[x][i].d) << ctx << " x=" << x;
      }
      // A second call returns the same patches without repairing again.
      const std::size_t changed = lazy.changed_entries();
      const auto again = lazy.repair(x, unmasked);
      EXPECT_TRUE(again.has_value()) << ctx;
      if (!again) continue;
      EXPECT_EQ(again->data(), patches->data()) << ctx;
      EXPECT_EQ(again->size(), patches->size()) << ctx;
      EXPECT_EQ(lazy.changed_entries(), changed) << ctx;
    }
    EXPECT_EQ(saturated, want.empty()) << ctx;
    if (want.empty()) continue;
    ++agents;
    EXPECT_EQ(lazy.agent_rows().size(), std::size_t{n} - 1) << ctx;  // row v is never repaired
    EXPECT_EQ(lazy.changed_entries(), eager.changed_entries()) << ctx;
    EXPECT_EQ(lazy.affected_rows(), eager.affected_rows()) << ctx;
    if (testing::Test::HasFailure()) return agents;
  }
  return agents;
}

TEST(MaskedRepair, OnDemandRowsMatchAllRowsInAnyOrder) {
  Xoshiro256ss rng(0x0D3A);
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    std::vector<Named> instances = corpus(seed * 0x7a11, /*small=*/false);
    instances.push_back({"path70", path(70)});
    instances.push_back({"cycle64", cycle(64)});
    instances.push_back({"cycle130", cycle(130)});
    int u8_agents = 0;
    int u16_agents = 0;
    for (const Named& inst : instances) {
      u8_agents += check_on_demand<std::uint8_t>(inst, rng);
      u16_agents += check_on_demand<std::uint16_t>(inst, rng);
      if (HasFailure()) return;
    }
    EXPECT_GT(u8_agents, 0);
    EXPECT_GT(u16_agents, u8_agents);  // C₆₄'s agents saturate u8 only
  }
}

void expect_same_deviation(const std::optional<Deviation>& got,
                           const std::optional<Deviation>& want, const std::string& ctx) {
  ASSERT_EQ(got.has_value(), want.has_value()) << ctx;
  if (!want) return;
  EXPECT_EQ(got->swap, want->swap) << ctx;
  EXPECT_EQ(got->cost_before, want->cost_before) << ctx;
  EXPECT_EQ(got->cost_after, want->cost_after) << ctx;
  EXPECT_EQ(got->kind, want->kind) << ctx;
}

/// Per-agent best/first scans of one engine against the naive oracle; move
/// counts follow the enumeration (one per candidate, plus one deletion
/// check per incident edge in the max+deletions scan).
void check_scans(const Graph& g, WidthPolicy width, const std::string& ctx) {
  SwapEngine engine(g, ResourceConfig{.width = width});
  SwapEngine::Scratch scratch;
  BfsWorkspace ws;
  LazyWidthRule rule(g);
  const Vertex n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    const std::string at = ctx + " v=" + std::to_string(v);
    // The five scans below, in order, at u8: each falls back iff the lazy
    // rule says so. A u16 engine never falls back.
    rule.begin(v);
    const std::uint64_t want_fallbacks =
        width == WidthPolicy::ForceU16
            ? 0
            : std::uint64_t{rule.scan(UsageCost::Sum, false, false)} +
                  rule.scan(UsageCost::Sum, false, true) +
                  rule.scan(UsageCost::Max, false, false) +
                  rule.scan(UsageCost::Max, true, false) + rule.scan(UsageCost::Max, true, true);
    const std::uint64_t fallbacks_before = engine.width_fallbacks();
    const std::uint64_t swaps = static_cast<std::uint64_t>(g.degree(v)) * (n - 1 - g.degree(v));
    std::uint64_t moves = 0;
    expect_same_deviation(engine.best_deviation(v, UsageCost::Sum, scratch, false, &moves),
                          naive::best_sum_deviation(g, v, ws), at + " best sum");
    EXPECT_EQ(moves, swaps) << at;
    expect_same_deviation(engine.first_deviation(v, UsageCost::Sum, scratch),
                          naive::first_sum_deviation(g, v, ws), at + " first sum");
    moves = 0;
    expect_same_deviation(engine.best_deviation(v, UsageCost::Max, scratch, false, &moves),
                          naive::best_max_deviation(g, v, ws), at + " best max");
    EXPECT_EQ(moves, swaps) << at;
    expect_same_deviation(engine.best_deviation(v, UsageCost::Max, scratch, true),
                          naive::best_max_deviation(g, v, ws, true), at + " best max+del");
    expect_same_deviation(engine.first_deviation(v, UsageCost::Max, scratch, true),
                          naive::first_max_deviation(g, v, ws, true), at + " first max+del");
    EXPECT_EQ(engine.width_fallbacks() - fallbacks_before, want_fallbacks) << at;
    if (testing::Test::HasFailure()) return;
  }
}

TEST(MaskedRepair, ScansMatchNaiveAtBothWidthsAndSimdExtremes) {
  const SimdLevel saved = simd_active_level();
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_max_level() != SimdLevel::Scalar) levels.push_back(simd_max_level());
  for (const SimdLevel level : levels) {
    ASSERT_EQ(simd_set_level(level), level);
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      for (const Named& inst : corpus(seed * 0x51ed, /*small=*/true)) {
        for (const WidthPolicy width : {WidthPolicy::ForceU8, WidthPolicy::ForceU16}) {
          check_scans(inst.g, width,
                      inst.name + " " + simd_level_name(level) +
                          (width == WidthPolicy::ForceU8 ? " u8" : " u16"));
          if (HasFailure()) {
            simd_set_level(saved);
            return;
          }
        }
      }
    }
  }
  simd_set_level(saved);
}

/// Fallbacks of a ForceU8 certification (every agent's best scan) by the
/// lazy rule.
std::uint64_t lazy_fallbacks(const Graph& g, UsageCost model, bool deletions) {
  LazyWidthRule rule(g);
  std::uint64_t fallbacks = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    rule.begin(v);
    fallbacks += rule.scan(model, deletions, /*stop_at_first=*/false) ? 1 : 0;
  }
  return fallbacks;
}

/// Fallback instances: the certificate must equal the oracle's, and the
/// fallback count must follow the lazy rule — and equal the pin, per model.
void check_fallbacks(const Graph& g, std::uint64_t want_fallbacks, const std::string& ctx) {
  for (const bool deletions : {false, true}) {
    const UsageCost model = deletions ? UsageCost::Max : UsageCost::Sum;
    ShardedCertifyConfig config;
    config.resources.width = WidthPolicy::ForceU8;
    const ShardedCertificate cert = certify_sharded(g, model, deletions, config);
    const EquilibriumCertificate want =
        deletions ? naive::certify_max_equilibrium(g) : naive::certify_sum_equilibrium(g);
    EXPECT_EQ(cert.certificate.is_equilibrium, want.is_equilibrium) << ctx;
    EXPECT_EQ(cert.certificate.moves_checked, want.moves_checked) << ctx;
    expect_same_deviation(cert.certificate.witness, want.witness, ctx + " witness");
    const std::string at = ctx + (deletions ? " max" : " sum");
    EXPECT_EQ(cert.width_fallbacks, lazy_fallbacks(g, model, deletions)) << at;
    EXPECT_EQ(cert.width_fallbacks, want_fallbacks) << at;
  }
}

TEST(MaskedRepair, WidthFallbackCycle64) {
  // The unmasked C₆₄ has diameter 32 and fits u8; every G − v is P₆₃, and
  // the fold's second min at either neighbor of v is 62 > 61, so every
  // agent falls back in its fold.
  check_fallbacks(cycle(64), 64, "C64");
}

TEST(MaskedRepair, WidthFallbackBroom) {
  // The u8 slab itself saturates (d(0, leaf) = 62), so every agent scans at
  // u16 and counts a fallback: 62 handle and 3 bristle agents.
  check_fallbacks(broom(3), 65, "broom");
}

struct PinnedCertificate {
  UsageCost model = UsageCost::Sum;
  std::uint64_t moves = 0;
  EdgeSwap witness;
  std::uint64_t cost_before = 0;
  std::uint64_t cost_after = 0;
  std::uint64_t width_fallbacks = 0;
};

/// ForceU8 certificates of the hub paths, sharded and not, against the
/// naive oracle and the pins, and the pinned fallbacks against the lazy
/// rule.
void check_pinned(const Graph& g, const std::vector<PinnedCertificate>& pins,
                  const std::string& ctx) {
  for (const PinnedCertificate& pin : pins) {
    const bool deletions = pin.model == UsageCost::Max;
    const std::string at = ctx + (deletions ? " max+del" : " sum");
    const EquilibriumCertificate want =
        deletions ? naive::certify_max_equilibrium(g) : naive::certify_sum_equilibrium(g);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      ShardedCertifyConfig config;
      config.shards = shards;
      config.resources.width = WidthPolicy::ForceU8;
      const ShardedCertificate cert = certify_sharded(g, pin.model, deletions, config);
      const std::string sat = at + " shards=" + std::to_string(shards);
      EXPECT_FALSE(cert.certificate.is_equilibrium) << sat;
      EXPECT_EQ(cert.certificate.is_equilibrium, want.is_equilibrium) << sat;
      EXPECT_EQ(cert.certificate.moves_checked, want.moves_checked) << sat;
      EXPECT_EQ(cert.certificate.moves_checked, pin.moves) << sat;
      expect_same_deviation(cert.certificate.witness, want.witness, sat);
      ASSERT_TRUE(cert.certificate.witness.has_value()) << sat;
      EXPECT_EQ(cert.certificate.witness->swap, pin.witness) << sat;
      EXPECT_EQ(cert.certificate.witness->cost_before, pin.cost_before) << sat;
      EXPECT_EQ(cert.certificate.witness->cost_after, pin.cost_after) << sat;
      EXPECT_EQ(cert.width_fallbacks, pin.width_fallbacks) << sat;
    }
    EXPECT_EQ(pin.width_fallbacks, lazy_fallbacks(g, pin.model, deletions)) << at;
  }
}

TEST(MaskedRepair, GuardedInstancesKeepTheirCertificatesAndFallbacks) {
  // Path 0..80 plus a vertex v on 19 and 61: G − v is P₈₁, whose row 0
  // meets d(0, 80) = 80, yet the fold of v stays within the cap (its second
  // min peaks at d(61, 0) = 61). v falls back only if its scan reads such a
  // row.
  Graph bypass = path(81);
  const Vertex v = bypass.add_vertex();
  bypass.add_edge(v, 19);
  bypass.add_edge(v, 61);
  check_pinned(bypass,
               {{UsageCost::Sum, 12952, {19, 20, 33}, 902, 762, 0},
                {UsageCost::Max, 13116, {19, 20, 21}, 22, 21, 0}},
               "bypass81");

  // Hub on every 10th vertex: masking the hub leaves the bare path, but the
  // hub's fold stays short (its neighbors are 10 apart); the hub agent
  // falls back on the first candidate row it repairs.
  check_pinned(hub_path(300, 10),
               {{UsageCost::Sum, 195158, {300, 0, 3}, 1070, 1063, 1},
                {UsageCost::Max, 195816, {290, 291, 293}, 9, 7, 1}},
               "hub10");
  // Hub on every 25th vertex: the masked neighbor rows of a path agent
  // reach past 61 / 2, but no agent but the hub reads a value past 61.
  check_pinned(hub_path(300, 25),
               {{UsageCost::Sum, 185204, {300, 0, 8}, 2316, 2268, 1},
                {UsageCost::Max, 185826, {275, 276, 286}, 24, 14, 1}},
               "hub25");
}

/// The fold as the engine built it before it folded unmasked rows: every
/// neighbor row of G − v materialized by repair over the u16 slab and
/// folded by scan_min_update, column v pinned to (0, ∞, kNoVertex). u16
/// never saturates below n = 65535.
struct MaterializedFold {
  AlignedVec<std::uint16_t> min1, min2;
  AlignedVec<Vertex> argmin;
};

MaterializedFold materialized_fold(const CsrGraph& csr, const std::uint16_t* slab, Vertex v) {
  const Vertex n = csr.num_vertices();
  MaskedRowRepair<std::uint16_t> repair;
  repair.begin(csr, v, kInfDist16, kInfDist16 - 1);
  MaterializedFold f;
  f.min1.assign(n, kInfDist16);
  f.min2.assign(n, kInfDist16);
  f.argmin.assign(n, kNoVertex);
  AlignedVec<std::uint16_t> row(n);
  for (const Vertex z : csr.neighbors(v)) {
    EXPECT_TRUE(repair.materialize(z, slab + static_cast<std::size_t>(z) * n, row.data()));
    simd::k16().scan_min_update(f.min1.data(), f.min2.data(), f.argmin.data(), row.data(), z, n);
  }
  f.min1[v] = 0;
  f.min2[v] = kInfDist16;
  f.argmin[v] = kNoVertex;
  return f;
}

/// Whether a u16 row holds no finite entry beyond the u8 cap.
bool fits_u8(const std::uint16_t* row, Vertex n) {
  return std::none_of(row, row + n, [](std::uint16_t d) {
    return d != kInfDist16 && d > kMaxFiniteFor<std::uint8_t>;
  });
}

/// The engine's fold of every agent of `g` — u8 and u16, dense and
/// budgeted — against the materialized fold, entry for entry. A fold must
/// report saturation exactly when it meets a value beyond its width: a
/// row it reads (the u8 slab; budgeted, a neighbor's unmasked row) or an
/// entry of the fold itself. A saturating u8 agent must then fall back in
/// its scan and answer as u16 does. Returns the u8 folds that saturated.
int check_fold(const Graph& g, const std::string& ctx) {
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  AlignedVec<std::uint16_t> slab(static_cast<std::size_t>(n) * n);
  EXPECT_TRUE(build_unmasked_slab<std::uint16_t>(csr, slab.data(), kInfDist16, kInfDist16 - 1));
  const auto row = [&](Vertex x) { return slab.data() + static_cast<std::size_t>(x) * n; };
  bool slab_fits_u8 = true;
  for (Vertex x = 0; x < n; ++x) slab_fits_u8 = slab_fits_u8 && fits_u8(row(x), n);
  int saturated = 0;
  for (const bool budgeted : {false, true}) {
    for (const WidthPolicy width : {WidthPolicy::ForceU8, WidthPolicy::ForceU16}) {
      const bool u8 = width == WidthPolicy::ForceU8;
      ResourceConfig config{.width = width};
      // Three u16 rows per lane: below the n×n slab at either width (n ≥ 7).
      if (budgeted) config.mem_budget = ThreadPool::global().size() * 6ull * n;
      const SwapEngine engine(g, config);
      EXPECT_EQ(engine.budget_policy().dense_fits(n, u8 ? DistWidth::U8 : DistWidth::U16),
                !budgeted);
      const SwapEngine wide(g, ResourceConfig{.width = WidthPolicy::ForceU16});
      SwapEngine::Scratch s, s16;
      for (Vertex v = 0; v < n; ++v) {
        const std::string at = ctx + (u8 ? " u8" : " u16") + (budgeted ? " budgeted" : " dense") +
                               " v=" + std::to_string(v);
        const MaterializedFold want = materialized_fold(csr, slab.data(), v);
        const auto nbrs = csr.neighbors(v);
        const bool reads_fit =
            budgeted ? std::all_of(nbrs.begin(), nbrs.end(),
                                   [&](Vertex z) { return fits_u8(row(z), n); })
                     : slab_fits_u8;
        const bool fits = !u8 || (reads_fit && fits_u8(want.min1.data(), n) &&
                                  fits_u8(want.min2.data(), n));
        const auto compare = [&](const auto& got) {
          using Dist = std::remove_cvref_t<decltype(got->min1[0])>;
          EXPECT_EQ(got.has_value(), fits) << at;
          if (!got) return false;
          const auto narrow = [](std::uint16_t d) {
            return d == kInfDist16 ? inf_of<Dist>() : static_cast<Dist>(d);
          };
          for (Vertex u = 0; u < n; ++u) {
            EXPECT_EQ(got->min1[u], narrow(want.min1[u])) << at << " u=" << u;
            EXPECT_EQ(got->min2[u], narrow(want.min2[u])) << at << " u=" << u;
            EXPECT_EQ(got->argmin[u], want.argmin[u]) << at << " u=" << u;
          }
          return true;
        };
        const bool folded = u8 ? compare(engine.fold_agent<std::uint8_t>(v, s))
                               : compare(engine.fold_agent<std::uint16_t>(v, s));
        if (!folded) {
          ++saturated;
          const std::uint64_t before = engine.width_fallbacks();
          expect_same_deviation(engine.best_deviation(v, UsageCost::Sum, s),
                                wide.best_deviation(v, UsageCost::Sum, s16), at + " sum");
          EXPECT_EQ(engine.width_fallbacks() - before, csr.degree(v) == 0 ? 0u : 1u) << at;
        }
        if (testing::Test::HasFailure()) return saturated;
      }
    }
  }
  return saturated;
}

TEST(MaskedRepair, UnmaskedFoldMatchesMaterializedFold) {
  Xoshiro256ss rng(0xF01D);
  std::vector<Named> instances;
  for (int i = 0; i < 12; ++i) {
    const Vertex n = 8 + static_cast<Vertex>(rng.below(48));
    const std::size_t m = n - 1 + rng.below(2 * n);
    instances.push_back({"gnm" + std::to_string(i), random_connected_gnm(n, m, rng)});
  }
  instances.push_back({"path", path(40)});
  instances.push_back({"hub_path", hub_path(120, 10)});
  instances.push_back({"star", star(13)});
  instances.push_back({"tree", random_tree(40, rng)});
  // Bipartite, so no neighbor of v sits at d(v, u): every vertex with one
  // first hop is hard.
  for (const Vertex k : {Vertex{3}, Vertex{4}, Vertex{6}, Vertex{8}}) {
    instances.push_back({"torus" + std::to_string(k), relabeled(rotated_torus(k).graph(), rng)});
  }
  Graph two = cycle(10);
  const Graph other = random_connected_gnm(12, 20, rng);
  for (Vertex x = 0; x < 12; ++x) two.add_vertex();
  for (Vertex x = 0; x < 12; ++x) {
    for (const Vertex y : other.neighbors(x)) {
      if (x < y) two.add_edge(10 + x, 10 + y);
    }
  }
  instances.push_back({"two_components", two});
  int saturated = 0;
  for (const Named& inst : instances) {
    saturated += check_fold(inst.g, inst.name);
    if (HasFailure()) return;
  }
  EXPECT_EQ(saturated, 0);  // every instance above fits u8
  // C₆₄ fits the u8 slab, but the fold of every agent re-settles a second
  // min of 62 at its neighbors: each must report saturation, in the dense
  // and the budgeted fold.
  EXPECT_EQ(check_fold(cycle(64), "C64"), 128);
}

/// α-game usages of agent v by one BFS per move, in ClassicGame's naive
/// enumeration order: adds by ascending endpoint, then per owned neighbor
/// the deletion and the swaps by ascending target.
std::vector<AlphaCandidate> naive_alpha_usages(const Graph& g, Vertex v,
                                               const std::vector<std::uint8_t>& owned,
                                               BfsWorkspace& ws) {
  std::vector<AlphaCandidate> out;
  Graph work = g;
  const Vertex n = g.num_vertices();
  const auto usage = [&] { return vertex_cost(work, v, UsageCost::Sum, ws); };
  for (Vertex w = 0; w < n; ++w) {
    if (w == v || g.has_edge(v, w)) continue;
    work.add_edge(v, w);
    out.push_back({AlphaCandidate::Kind::Add, w, 0, usage()});
    work.remove_edge(v, w);
  }
  for (const Vertex w : g.neighbors(v)) {
    if (owned[w] == 0) continue;
    work.remove_edge(v, w);
    out.push_back({AlphaCandidate::Kind::Delete, w, 0, usage()});
    for (Vertex w2 = 0; w2 < n; ++w2) {
      if (w2 == v || g.has_edge(v, w2)) continue;
      work.add_edge(v, w2);
      out.push_back({AlphaCandidate::Kind::Swap, w, w2, usage()});
      work.remove_edge(v, w2);
    }
    work.add_edge(v, w);
  }
  return out;
}

void expect_same_candidates(const std::vector<AlphaCandidate>& got,
                            const std::vector<AlphaCandidate>& want, const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << ctx << " i=" << i;
    EXPECT_EQ(got[i].w, want[i].w) << ctx << " i=" << i;
    EXPECT_EQ(got[i].w2, want[i].w2) << ctx << " i=" << i;
    EXPECT_EQ(got[i].usage, want[i].usage) << ctx << " i=" << i;
  }
}

void expect_same_report(const KStabilityReport& got, const KStabilityReport& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.stable, want.stable) << ctx;
  EXPECT_EQ(got.witness_vertex, want.witness_vertex) << ctx;
  EXPECT_EQ(got.witness_endpoints, want.witness_endpoints) << ctx;
  EXPECT_EQ(got.witness_deletions, want.witness_deletions) << ctx;
}

/// Fallbacks of one ForceU8 sweep of each query: the α scan and
/// swap_stability_at at k = 1 and 2.
struct QueryFallbacks {
  std::uint64_t alpha = 0;
  std::uint64_t kswap1 = 0;
  std::uint64_t kswap2 = 0;
};

/// ForceU8 α-game and k-swap queries, agent by agent: each falls back
/// exactly when the lazy rule says so, and its answer equals the ForceU16
/// engine's and the naive oracle's. Returns the fallbacks of one sweep of
/// each query.
QueryFallbacks check_alpha_and_kswap_fallbacks(const Graph& g, const std::string& ctx) {
  SwapEngine e8(g, ResourceConfig{.width = WidthPolicy::ForceU8});
  SwapEngine e16(g, ResourceConfig{.width = WidthPolicy::ForceU16});
  SwapEngine::Scratch s8, s16;
  BfsWorkspace ws;
  LazyWidthRule rule(g);
  const Vertex n = g.num_vertices();
  QueryFallbacks expected;
  std::vector<std::uint8_t> owned(n);
  for (Vertex v = 0; v < n; ++v) {
    const std::string at = ctx + " v=" + std::to_string(v);
    rule.begin(v);
    for (Vertex w = 0; w < n; ++w) owned[w] = w > v ? 1 : 0;

    const std::uint64_t alpha_rule = rule.alpha() ? 1 : 0;
    expected.alpha += alpha_rule;
    std::uint64_t before = e8.width_fallbacks();
    const std::vector<AlphaCandidate> narrow = e8.alpha_scan(v, owned, s8);
    EXPECT_EQ(e8.width_fallbacks() - before, alpha_rule) << at << " alpha";
    const std::vector<AlphaCandidate> want = naive_alpha_usages(g, v, owned, ws);
    expect_same_candidates(narrow, want, at + " alpha u8");
    expect_same_candidates(e16.alpha_scan(v, owned, s16), want, at + " alpha u16");

    for (Vertex k = 1; k <= 2; ++k) {
      const std::string kat = at + " k=" + std::to_string(k);
      const std::uint64_t kswap_rule = rule.kswap(k) ? 1 : 0;
      (k == 1 ? expected.kswap1 : expected.kswap2) += kswap_rule;
      before = e8.width_fallbacks();
      const KStabilityReport got = e8.swap_stability_at(v, k, s8);
      EXPECT_EQ(e8.width_fallbacks() - before, kswap_rule) << kat << " kswap";
      const KStabilityReport oracle = naive::swap_stability_at(g, v, k);
      expect_same_report(got, oracle, kat + " kswap u8");
      expect_same_report(e16.swap_stability_at(v, k, s16), oracle, kat + " kswap u16");
    }
    if (testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(e16.width_fallbacks(), 0u) << ctx;
  return expected;
}

void expect_fallbacks(const QueryFallbacks& got, const QueryFallbacks& want,
                      const std::string& ctx) {
  EXPECT_EQ(got.alpha, want.alpha) << ctx << " alpha";
  EXPECT_EQ(got.kswap1, want.kswap1) << ctx << " k=1";
  EXPECT_EQ(got.kswap2, want.kswap2) << ctx << " k=2";
}

TEST(MaskedRepair, AlphaAndKSwapFallbacksFollowTheMaskedRule) {
  // P₇₀ and C₁₃₀ saturate the u8 slab (diameters 69 and 65), so every
  // query of every agent falls back.
  expect_fallbacks(check_alpha_and_kswap_fallbacks(path(70), "P70"), {70, 70, 70}, "P70");
  expect_fallbacks(check_alpha_and_kswap_fallbacks(cycle(130), "C130"), {130, 130, 130},
                   "C130");
  // The chorded C₁₀₀ fits the u8 slab; masking a chord endpoint leaves
  // P₉₉, and masking a vertex near one leaves a detour longer than 61.
  Graph chorded = cycle(100);
  chorded.add_edge(0, 50);
  expect_fallbacks(check_alpha_and_kswap_fallbacks(chorded, "chorded100"), {50, 50, 50},
                   "chorded100");
  expect_fallbacks(check_alpha_and_kswap_fallbacks(path(128), "P128"), {128, 128, 128}, "P128");
}

}  // namespace
}  // namespace bncg
