// Masked rows by repair (graph/masked_repair.hpp, DESIGN.md §17): every
// repaired row — unmasked row plus the agent's patches — must
// equal the literal masked APSP of G − v on every entry u ≠ v, at both
// storage widths; the dense scans built on the repair must match the naive
// oracle per agent (verdict, witness, move count) at u8 and u16 and at both
// SIMD extremes; and the width-fallback count must keep the masked-matrix
// rule on the instances that exercise it. CMakeLists pins the MaskedRepair*
// filter at BNCG_THREADS 1 and 4 — the slab is built on the pool and read
// by every lane.
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
#include "util/rng.hpp"
#include "util/simd.hpp"

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
    const bool repaired = repair.repair_all(slab.data());
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
  if (!repair.repair_all(slab)) return {};
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
  const Vertex n = g.num_vertices();
  for (Vertex v = 0; v < n; ++v) {
    const std::string at = ctx + " v=" + std::to_string(v);
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

/// Fallback instances: the certificate must equal the oracle's, and the
/// fallback count must follow the masked-matrix rule — an agent falls back
/// iff G − v, excluding v's row and column, holds a finite distance above
/// the u8 cap.
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
    EXPECT_EQ(cert.width_fallbacks, want_fallbacks) << ctx << (deletions ? " max" : " sum");
  }
}

TEST(MaskedRepair, WidthFallbackCycle64) {
  // The unmasked C₆₄ has diameter 32 and fits u8; every G − v is P₆₃ with
  // diameter 62 > 61, so every agent repairs past the cap and falls back.
  check_fallbacks(cycle(64), 64, "C64");
}

TEST(MaskedRepair, WidthFallbackBroom) {
  // The u8 slab itself saturates (d(0, leaf) = 62), so every agent scans at
  // u16 and the fallback is counted: agent 0 removes every over-cap pair,
  // handle agents cut 0 off from the leaves, and only the 3 bristle agents
  // keep a finite (0, leaf) distance of 62.
  check_fallbacks(broom(3), 3, "broom");
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

struct PinnedCertificate {
  UsageCost model = UsageCost::Sum;
  std::uint64_t moves = 0;
  EdgeSwap witness;
  std::uint64_t cost_before = 0;
  std::uint64_t cost_after = 0;
  std::uint64_t width_fallbacks = 0;
};

/// ForceU8 certificates of the hub paths, sharded and not, against the
/// naive oracle and against the values the all-rows repair produced.
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
  }
}

/// Agents of a serial ForceU8 sum sweep that repaired every row without
/// falling back — the agents whose neighbor rows tripped the 2·ecc guard.
Vertex guard_tripped_agents(const Graph& g) {
  SwapEngine engine(g, ResourceConfig{.width = WidthPolicy::ForceU8});
  SwapEngine::Scratch scratch;
  Vertex tripped = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint64_t fallbacks = engine.width_fallbacks();
    (void)engine.best_deviation(v, UsageCost::Sum, scratch);
    if (engine.width_fallbacks() == fallbacks &&
        scratch.repair8().agent_rows().size() == g.num_vertices() - std::size_t{1}) {
      ++tripped;
    }
  }
  return tripped;
}

TEST(MaskedRepair, GuardedInstancesKeepTheirCertificatesAndFallbacks) {
  // Path 0..80 plus a vertex v on 19 and 61: the neighbor rows of G − v
  // reach 61 and fit u8, but row 0 meets d(0, 80) = 80. A scan repairing
  // only the rows it reads would miss that and keep v at u8; the guard
  // repairs every row, so v falls back as under the all-rows repair.
  Graph bypass = path(81);
  const Vertex v = bypass.add_vertex();
  bypass.add_edge(v, 19);
  bypass.add_edge(v, 61);
  check_pinned(bypass,
               {{UsageCost::Sum, 12952, {19, 20, 33}, 902, 762, 1},
                {UsageCost::Max, 13116, {19, 20, 21}, 22, 21, 1}},
               "bypass81");

  // Hub on every 10th vertex: only the hub agent overflows u8 — its
  // neighbor rows already do, so it falls back before the guard is read —
  // and every other agent stays lazy.
  const Graph hub10 = hub_path(300, 10);
  EXPECT_EQ(guard_tripped_agents(hub10), 0u);
  check_pinned(hub10,
               {{UsageCost::Sum, 195158, {300, 0, 3}, 1070, 1063, 1},
                {UsageCost::Max, 195816, {290, 291, 293}, 9, 7, 1}},
               "hub10");
  // Hub on every 25th vertex: the masked neighbor rows of a path agent
  // reach past 61 / 2, so the guard repairs every row up front; the rows
  // still fit, and the hub alone falls back.
  const Graph hub25 = hub_path(300, 25);
  EXPECT_GT(guard_tripped_agents(hub25), 250u);
  check_pinned(hub25,
               {{UsageCost::Sum, 185204, {300, 0, 8}, 2316, 2268, 1},
                {UsageCost::Max, 185826, {275, 276, 286}, 24, 14, 1}},
               "hub25");
}


/// The masked-matrix rule by literal BFS: true iff G − v, excluding v's
/// row and column, holds a finite distance above the u8 cap.
bool masked_exceeds_u8_by_bfs(const Graph& g, Vertex v, BfsWorkspace& ws) {
  Graph masked = g;
  const std::vector<Vertex> nbrs(g.neighbors(v).begin(), g.neighbors(v).end());
  for (const Vertex w : nbrs) masked.remove_edge(v, w);
  for (Vertex x = 0; x < g.num_vertices(); ++x) {
    if (x != v && bfs(masked, x, ws).ecc > kMaxFiniteFor<std::uint8_t>) return true;
  }
  return false;
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

/// ForceU8 α-game and k-swap queries, agent by agent: each falls back
/// exactly when the masked-matrix rule says so, and its answer equals the
/// ForceU16 engine's and the naive oracle's. Returns the fallbacks of one
/// sweep of each query.
std::uint64_t check_alpha_and_kswap_fallbacks(const Graph& g, const std::string& ctx) {
  SwapEngine e8(g, ResourceConfig{.width = WidthPolicy::ForceU8});
  SwapEngine e16(g, ResourceConfig{.width = WidthPolicy::ForceU16});
  SwapEngine::Scratch s8, s16;
  BfsWorkspace ws;
  const Vertex n = g.num_vertices();
  std::uint64_t expected = 0;
  std::vector<std::uint8_t> owned(n);
  for (Vertex v = 0; v < n; ++v) {
    const std::string at = ctx + " v=" + std::to_string(v);
    const std::uint64_t rule = masked_exceeds_u8_by_bfs(g, v, ws) ? 1 : 0;
    expected += rule;
    for (Vertex w = 0; w < n; ++w) owned[w] = w > v ? 1 : 0;

    std::uint64_t before = e8.width_fallbacks();
    const std::vector<AlphaCandidate> narrow = e8.alpha_scan(v, owned, s8);
    EXPECT_EQ(e8.width_fallbacks() - before, rule) << at << " alpha";
    const std::vector<AlphaCandidate> want = naive_alpha_usages(g, v, owned, ws);
    expect_same_candidates(narrow, want, at + " alpha u8");
    expect_same_candidates(e16.alpha_scan(v, owned, s16), want, at + " alpha u16");

    for (Vertex k = 1; k <= 2; ++k) {
      const std::string kat = at + " k=" + std::to_string(k);
      before = e8.width_fallbacks();
      const KStabilityReport got = e8.swap_stability_at(v, k, s8);
      EXPECT_EQ(e8.width_fallbacks() - before, rule) << kat << " kswap";
      const KStabilityReport oracle = naive::swap_stability_at(g, v, k);
      expect_same_report(got, oracle, kat + " kswap u8");
      expect_same_report(e16.swap_stability_at(v, k, s16), oracle, kat + " kswap u16");
    }
    if (testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(e16.width_fallbacks(), 0u) << ctx;
  return expected;
}

TEST(MaskedRepair, AlphaAndKSwapFallbacksFollowTheMaskedRule) {
  // P₇₀ saturates the u8 slab (diameter 69): agents 0..6 and 63..69 leave
  // a masked path longer than 61, and they are also the agents with
  // ecc − 1 > 61. C₁₃₀ saturates the slab too, and every G − v is P₁₂₉.
  EXPECT_EQ(check_alpha_and_kswap_fallbacks(path(70), "P70"), 14u);
  EXPECT_EQ(check_alpha_and_kswap_fallbacks(cycle(130), "C130"), 130u);
  // The chorded C₁₀₀ fits the u8 slab; masking a chord endpoint leaves
  // P₉₉, and masking a vertex near one leaves a detour longer than 61:
  // half the agents fall back.
  Graph chorded = cycle(100);
  chorded.add_edge(0, 50);
  EXPECT_EQ(check_alpha_and_kswap_fallbacks(chorded, "chorded100"), 50u);
  // P₁₂₈: every agent has ecc − 1 > 61, and every G − v keeps a subpath
  // longer than 61, so every agent falls back.
  EXPECT_EQ(check_alpha_and_kswap_fallbacks(path(128), "P128"), 128u);
}

}  // namespace
}  // namespace bncg
