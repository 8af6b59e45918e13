// Differential fuzz suite for the runtime-dispatched SIMD kernels
// (util/simd.hpp): every dispatch level compiled into the binary and
// supported by the host CPU must be bit-identical to the scalar reference
// table — kernel by kernel on random, unaligned-tail, and all-infinity
// inputs, and end to end on scan tables, certification witnesses, and
// whole propose/commit trajectories across 200+ seeded instances at both
// models and both storage widths. Compiled into the seeded property
// harness (bncg_property_tests, CTest label "tier1-property").
//
// The harness pins levels via simd_set_level(); the BNCG_SIMD env knob
// itself is exercised by the forced-scalar CI leg, which runs this whole
// suite with every level collapsed to scalar (the cross-level loops then
// compare scalar to scalar — vacuous there, load-bearing everywhere else).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "certificate_oracle.hpp"
#include "core/certify_sharded.hpp"
#include "core/search.hpp"
#include "core/swap_engine.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "graph/bfs.hpp"
#include "graph/dist_width.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bncg {
namespace {

/// Every level this binary+CPU can actually run, scalar first.
std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_max_level() >= SimdLevel::Avx2) levels.push_back(SimdLevel::Avx2);
  if (simd_max_level() >= SimdLevel::Avx512) levels.push_back(SimdLevel::Avx512);
  return levels;
}

/// RAII: restore the entry level (the BNCG_SIMD-resolved one) after a test
/// body pinned something else.
struct LevelGuard {
  SimdLevel saved = simd_active_level();
  ~LevelGuard() { simd_set_level(saved); }
};

/// Buffer lengths covering sub-vector, exact-vector, and ragged-tail sizes
/// for 32- and 64-lane kernels.
constexpr std::uint32_t kSizes[] = {1,  2,  3,   7,   8,   15,  16,  31,  32, 33,
                                    63, 64, 65,  100, 127, 128, 129, 255, 256, 257,
                                    511, 513, 1000};

template <typename Dist>
Dist rand_dist(Xoshiro256ss& rng, Dist inf) {
  // Bias toward the interesting edge: the capped-infinity sentinel and its
  // immediate neighborhood, where every compare identity must hold exactly.
  const std::uint64_t roll = rng.below(10);
  if (roll == 0) return inf;
  if (roll == 1) return static_cast<Dist>(inf - rng.below(3));
  return static_cast<Dist>(rng.below(std::uint64_t{inf} + 1));
}

template <typename Dist>
std::vector<Dist> rand_row(Xoshiro256ss& rng, std::uint32_t n, Dist inf, bool all_inf) {
  std::vector<Dist> row(n);
  for (auto& v : row) v = all_inf ? inf : rand_dist(rng, inf);
  return row;
}

/// Runs `body` once per available non-scalar level with that level pinned,
/// after capturing scalar expectations via `expect`.
template <typename Expect, typename Body>
void for_each_level(Expect&& expect, Body&& body) {
  LevelGuard guard;
  simd_set_level(SimdLevel::Scalar);
  expect();
  for (const SimdLevel level : available_levels()) {
    if (level == SimdLevel::Scalar) continue;
    ASSERT_EQ(simd_set_level(level), level);
    body(level);
  }
}

template <typename Dist>
void fuzz_kernels_width(std::uint64_t seed) {
  const Dist inf = kSearchInfFor<Dist>;
  Xoshiro256ss rng(seed);
  for (const std::uint32_t n : kSizes) {
    for (int variant = 0; variant < 4; ++variant) {
      const bool all_inf = variant == 3;
      // +3 slack so an offset start exercises unaligned bases too.
      const std::uint32_t off = variant % 3;
      auto m_buf = rand_row<Dist>(rng, n + 3, inf, all_inf);
      auto c_buf = rand_row<Dist>(rng, n + 3, inf, false);
      const Dist* m = m_buf.data() + off;
      const Dist* c = c_buf.data() + off;
      const std::string ctx = "n=" + std::to_string(n) + " variant=" + std::to_string(variant) +
                              " width=" + std::to_string(sizeof(Dist) * 8);

      // --- pure reductions -------------------------------------------------
      std::uint64_t want_sum = 0, want_max = 0, want_del = 0;
      std::uint32_t want_rsum = 0;
      Dist want_rmax = 0;
      for_each_level(
          [&] {
            const auto& k = simd::kernels<Dist>();
            want_sum = k.combine_sum(m, c, n, inf);
            want_max = k.combine_max(m, c, n, inf);
            want_del = k.deletion_ecc(m, n, inf);
            k.row_sum_max(m, n, &want_rsum, &want_rmax);
          },
          [&](SimdLevel level) {
            const auto& k = simd::kernels<Dist>();
            const std::string lctx = ctx + " level=" + simd_level_name(level);
            EXPECT_EQ(k.combine_sum(m, c, n, inf), want_sum) << lctx;
            EXPECT_EQ(k.combine_max(m, c, n, inf), want_max) << lctx;
            EXPECT_EQ(k.deletion_ecc(m, n, inf), want_del) << lctx;
            std::uint32_t rsum = 0;
            Dist rmax = 0;
            k.row_sum_max(m, n, &rsum, &rmax);
            EXPECT_EQ(rsum, want_rsum) << lctx;
            EXPECT_EQ(rmax, want_rmax) << lctx;
          });

      // --- scan-table fold + select ----------------------------------------
      const std::uint32_t folds = 1 + static_cast<std::uint32_t>(rng.below(5));
      std::vector<std::vector<Dist>> fold_rows;
      std::vector<std::uint32_t> fold_ids;
      for (std::uint32_t i = 0; i < folds; ++i) {
        fold_rows.push_back(rand_row<Dist>(rng, n, inf, false));
        fold_ids.push_back(static_cast<std::uint32_t>(rng.below(n)));
      }
      const std::uint32_t w_sel = fold_ids.front();
      std::vector<Dist> want_min1, want_min2, want_sel(n);
      std::vector<std::uint32_t> want_arg;
      const auto run_tables = [&](std::vector<Dist>& min1, std::vector<Dist>& min2,
                                  std::vector<std::uint32_t>& argmin, std::vector<Dist>& sel) {
        const auto& k = simd::kernels<Dist>();
        min1.assign(n, inf);
        min2.assign(n, inf);
        argmin.assign(n, kNoVertex);
        for (std::uint32_t i = 0; i < folds; ++i) {
          k.scan_min_update(min1.data(), min2.data(), argmin.data(), fold_rows[i].data(),
                            fold_ids[i], n);
        }
        k.select_mrow(sel.data(), min1.data(), min2.data(), argmin.data(), w_sel, n);
      };
      for_each_level(
          [&] { run_tables(want_min1, want_min2, want_arg, want_sel); },
          [&](SimdLevel level) {
            std::vector<Dist> min1, min2, sel(n);
            std::vector<std::uint32_t> argmin;
            run_tables(min1, min2, argmin, sel);
            const std::string lctx = ctx + " level=" + simd_level_name(level);
            EXPECT_EQ(min1, want_min1) << lctx;
            EXPECT_EQ(min2, want_min2) << lctx;
            EXPECT_EQ(argmin, want_arg) << lctx;
            EXPECT_EQ(sel, want_sel) << lctx;
          });

      // --- filters ----------------------------------------------------------
      const std::int32_t caps[] = {-1, 0, static_cast<std::int32_t>(inf) / 2,
                                   static_cast<std::int32_t>(inf) - 1,
                                   static_cast<std::int32_t>(inf)};
      const std::uint32_t skip = static_cast<std::uint32_t>(rng.below(n + 1));  // may be == n
      for (const std::int32_t cap : caps) {
        std::vector<std::uint32_t> want_above, want_below, want_gt1;
        for_each_level(
            [&] {
              const auto& k = simd::kernels<Dist>();
              want_above.resize(n);
              want_above.resize(k.collect_above(m, n, cap, skip, want_above.data()));
              want_below.resize(n);
              want_below.resize(k.collect_below(m, n, cap, skip, want_below.data()));
              want_gt1.resize(n);
              want_gt1.resize(k.collect_absdiff_gt1(m, c, n, want_gt1.data()));
            },
            [&](SimdLevel level) {
              const auto& k = simd::kernels<Dist>();
              std::vector<std::uint32_t> out(n);
              const std::string lctx =
                  ctx + " cap=" + std::to_string(cap) + " level=" + simd_level_name(level);
              std::vector<std::uint32_t> got(out.begin(),
                                             out.begin() + k.collect_above(m, n, cap, skip,
                                                                           out.data()));
              EXPECT_EQ(got, want_above) << lctx;
              got.assign(out.begin(),
                         out.begin() + k.collect_below(m, n, cap, skip, out.data()));
              EXPECT_EQ(got, want_below) << lctx;
              // {> cap} from collect_above and {< cap+1} = {≤ cap} from
              // collect_below partition {0..n−1} \ {skip}.
              got.assign(out.begin(),
                         out.begin() + k.collect_below(m, n, cap + 1, skip, out.data()));
              EXPECT_EQ(want_above.size() + got.size(),
                        static_cast<std::size_t>(n) - (skip < n ? 1 : 0))
                  << lctx;
              got.assign(out.begin(),
                         out.begin() + k.collect_absdiff_gt1(m, c, n, out.data()));
              EXPECT_EQ(got, want_gt1) << lctx;
            });
      }

      // --- far test bitset (keep_within) -----------------------------------
      // Every level, scalar included, is held against the definition, since
      // the scalar body is SWAR rather than the plain loop below. The second
      // row spans the whole Dist range (the engine's u16 infinity is 0xFFFF),
      // so lanes with the top bit set are exercised too.
      std::vector<Dist> wide(n);
      for (auto& x : wide) x = static_cast<Dist>(rng.below(std::uint64_t{Dist(~Dist{0})} + 1));
      const std::size_t words = (n + 63) / 64;
      std::vector<std::uint64_t> alive0(words);
      // Zero words must stay zero; bits at y ≥ n start set and must clear.
      for (auto& word : alive0) word = rng.below(4) == 0 ? 0 : rng();
      const auto inf32 = static_cast<std::int32_t>(inf);
      // Around 0, kInf and the lanes' top bit, and past the Dist range.
      const std::int32_t within_caps[] = {-7,   -1,   0,    inf32 / 2, inf32 - 1, inf32, 0x7E,
                                          0x7F, 0x80, 0xFF, 0x7FFE,    0x7FFF,    0xFFFF, 0x10000};
      for (const Dist* row : {m, static_cast<const Dist*>(wide.data())}) {
        for (const std::int32_t cap : within_caps) {
          std::vector<std::uint64_t> want = alive0;
          for (std::size_t j = 0; j < words; ++j) {
            std::uint64_t bits = 0;
            for (std::size_t i = 0; i < 64 && j * 64 + i < n; ++i) {
              if (static_cast<std::int32_t>(row[j * 64 + i]) <= cap) bits |= std::uint64_t{1} << i;
            }
            want[j] &= bits;
          }
          const bool want_any =
              std::any_of(want.begin(), want.end(), [](std::uint64_t w) { return w != 0; });
          LevelGuard guard;
          for (const SimdLevel level : available_levels()) {
            ASSERT_EQ(simd_set_level(level), level);
            std::vector<std::uint64_t> got = alive0;
            const bool any = simd::kernels<Dist>().keep_within(got.data(), row, n, cap);
            const std::string lctx = ctx + " keep_within cap=" + std::to_string(cap) +
                                     " wide=" + std::to_string(row == wide.data()) +
                                     " level=" + simd_level_name(level);
            EXPECT_EQ(got, want) << lctx;
            EXPECT_EQ(any, want_any) << lctx;
            for (std::size_t j = 0; j < words; ++j) {
              if (alive0[j] == 0) EXPECT_EQ(got[j], 0u) << lctx << " word=" << j;
            }
            if (cap == inf32 - 1) {
              for (std::uint32_t y = 0; y < n; ++y) {
                if (row[y] >= inf) EXPECT_EQ(got[y / 64] >> (y % 64) & 1, 0u) << lctx << " y=" << y;
              }
            }
          }
        }
      }

      // --- k-way min fold ---------------------------------------------------
      const auto fold_src = rand_row<Dist>(rng, n, inf, all_inf);
      const auto fold_base = rand_row<Dist>(rng, n, inf, false);
      std::vector<Dist> want_fold;
      for_each_level(
          [&] {
            const auto& k = simd::kernels<Dist>();
            want_fold = fold_base;
            k.min_fold(want_fold.data(), fold_src.data(), n);
          },
          [&](SimdLevel level) {
            const auto& k = simd::kernels<Dist>();
            std::vector<Dist> dst = fold_base;
            k.min_fold(dst.data(), fold_src.data(), n);
            EXPECT_EQ(dst, want_fold) << ctx << " level=" << simd_level_name(level);
          });
    }
  }
}

TEST(SimdParity, KernelsMatchScalarU8) { fuzz_kernels_width<std::uint8_t>(0x51D8); }

TEST(SimdParity, KernelsMatchScalarU16) { fuzz_kernels_width<std::uint16_t>(0x51D16); }

TEST(SimdParity, OrGatherMatchesScalar) {
  Xoshiro256ss rng(0x06A7);
  for (const std::uint32_t n : kSizes) {
    std::vector<std::uint64_t> words(n);
    for (auto& w : words) w = rng();
    for (const std::uint32_t count : {std::uint32_t{0}, std::uint32_t{1}, std::uint32_t{3},
                                      std::uint32_t{4}, std::uint32_t{7}, std::uint32_t{8},
                                      std::uint32_t{9}, n}) {
      std::vector<std::uint32_t> idx(count);
      for (auto& i : idx) i = static_cast<std::uint32_t>(rng.below(n));
      std::uint64_t want = 0;
      for_each_level([&] { want = simd::words().or_gather(words.data(), idx.data(), count); },
                     [&](SimdLevel level) {
                       EXPECT_EQ(simd::words().or_gather(words.data(), idx.data(), count), want)
                           << "n=" << n << " count=" << count << " level="
                           << simd_level_name(level);
                     });
    }
  }
}

TEST(SimdParity, LevelControls) {
  LevelGuard guard;
  // The clamp: requesting above the max lands on the max; requesting scalar
  // always succeeds; names round-trip the BNCG_SIMD vocabulary.
  EXPECT_EQ(simd_set_level(SimdLevel::Scalar), SimdLevel::Scalar);
  EXPECT_EQ(simd_active_level(), SimdLevel::Scalar);
  EXPECT_EQ(simd_set_level(SimdLevel::Avx512),
            std::min(SimdLevel::Avx512, simd_max_level()));
  EXPECT_EQ(simd_active_level(), simd_max_level());
  EXPECT_STREQ(simd_level_name(SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::Avx2), "avx2");
  EXPECT_STREQ(simd_level_name(SimdLevel::Avx512), "avx512");
}

// ------------------------------------------------------------- end to end

Graph parity_instance(int trial, Xoshiro256ss& rng) {
  switch (trial % 6) {
    case 0: {
      const Vertex n = 6 + static_cast<Vertex>(rng.below(13));
      const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
      const std::size_t m =
          std::clamp<std::size_t>(10 + rng.below(26), std::size_t{n} - 1, max_edges);
      return random_connected_gnm(n, m, rng);
    }
    case 1:
      return random_tree(6 + static_cast<Vertex>(rng.below(13)), rng);
    case 2:
      return cycle(5 + static_cast<Vertex>(rng.below(14)));
    case 3:
      return path(6 + static_cast<Vertex>(rng.below(12)));
    case 4: {
      // Disconnection-prone: masked sweeps hit all-infinity rows.
      const Vertex n = 8 + static_cast<Vertex>(rng.below(9));
      return random_gnm(n, n + rng.below(n), rng);
    }
    default:
      return random_connected_gnm(10 + static_cast<Vertex>(rng.below(8)), 18 + rng.below(18),
                                  rng);
  }
}

/// One instance's full observable surface at the current level: certificate
/// verdict + witness + move count from certify_sharded, the unrest, and the
/// engine's fold tables (min1/min2/argmin, widened) of a few agents.
struct Snapshot {
  struct Tables {
    std::vector<std::uint32_t> min1, min2, argmin;
  };
  EquilibriumCertificate cert;
  std::vector<std::optional<Tables>> tables;
  std::uint64_t unrest = 0;

  bool operator==(const Snapshot& o) const {
    const auto same_dev = [](const std::optional<Deviation>& a,
                             const std::optional<Deviation>& b) {
      if (a.has_value() != b.has_value()) return false;
      if (!a) return true;
      return a->swap.v == b->swap.v && a->swap.remove_w == b->swap.remove_w &&
             a->swap.add_w == b->swap.add_w && a->cost_before == b->cost_before &&
             a->cost_after == b->cost_after && a->kind == b->kind;
    };
    if (cert.is_equilibrium != o.cert.is_equilibrium ||
        cert.moves_checked != o.cert.moves_checked || unrest != o.unrest ||
        !same_dev(cert.witness, o.cert.witness) || tables.size() != o.tables.size()) {
      return false;
    }
    for (std::size_t i = 0; i < tables.size(); ++i) {
      const auto& a = tables[i];
      const auto& b = o.tables[i];
      if (a.has_value() != b.has_value()) return false;
      if (a && (a->min1 != b->min1 || a->min2 != b->min2 || a->argmin != b->argmin)) {
        return false;
      }
    }
    return true;
  }
};

Snapshot snapshot_instance(const Graph& g, UsageCost model, WidthPolicy width) {
  Snapshot snap;
  const bool deletions = model == UsageCost::Max;
  ShardedCertifyConfig config;
  config.resources.width = width;
  snap.cert = certify_sharded(g, model, deletions, config).certificate;
  snap.unrest = model == UsageCost::Sum ? sum_unrest(g) : max_unrest(g);
  const SwapEngine engine(g, config.resources);
  SwapEngine::Scratch scratch;
  const Vertex probe = std::min<Vertex>(g.num_vertices(), 3);
  for (Vertex a = 0; a < probe; ++a) {
    const auto fold = [&](auto tag) -> std::optional<Snapshot::Tables> {
      const auto f = engine.fold_agent<decltype(tag)>(a, scratch);
      if (!f) return std::nullopt;
      return Snapshot::Tables{{f->min1.begin(), f->min1.end()},
                              {f->min2.begin(), f->min2.end()},
                              {f->argmin.begin(), f->argmin.end()}};
    };
    snap.tables.push_back(width == WidthPolicy::ForceU8 ? fold(std::uint8_t{})
                                                        : fold(std::uint16_t{}));
  }
  return snap;
}

TEST(SimdParity, EndToEndAcrossLevels) {
  // 104 instances × both models × both widths = 416 certification+scan-table
  // comparisons per non-scalar level.
  LevelGuard guard;
  Xoshiro256ss rng(0xE2E);
  for (int trial = 0; trial < 104; ++trial) {
    const Graph g = parity_instance(trial, rng);
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const EquilibriumCertificate oracle = naive_certificate(g, model, model == UsageCost::Max);
      for (const WidthPolicy width : {WidthPolicy::ForceU8, WidthPolicy::ForceU16}) {
        simd_set_level(SimdLevel::Scalar);
        const Snapshot want = snapshot_instance(g, model, width);
        expect_same_certificate(want.cert, oracle, "scalar trial " + std::to_string(trial));
        for (const SimdLevel level : available_levels()) {
          if (level == SimdLevel::Scalar) continue;
          simd_set_level(level);
          const Snapshot got = snapshot_instance(g, model, width);
          EXPECT_TRUE(got == want)
              << "trial " << trial << " model " << (model == UsageCost::Sum ? "sum" : "max")
              << " width " << (width == WidthPolicy::ForceU8 ? "u8" : "u16") << " level "
              << simd_level_name(level);
        }
      }
    }
  }
}

/// Deterministic greedy trajectory: propose a pseudo-random toggle each
/// step, commit iff the proposal strictly lowers unrest — evaluated as
/// anneal evaluates it, by the engine's pooled scan (sum_unrest or
/// max_unrest) on the toggled graph. Returns the full decision trace — any
/// cross-level divergence in any kernel output along the way changes the
/// trace.
std::vector<std::uint64_t> run_trajectory(const Graph& g0, UsageCost model, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const auto unrest = [model](const Graph& g) {
    return model == UsageCost::Sum ? sum_unrest(g) : max_unrest(g);
  };
  Graph g = g0;
  std::vector<std::uint64_t> trace;
  const Vertex n = g.num_vertices();
  std::uint64_t current = unrest(g);
  trace.push_back(current);
  for (int step = 0; step < 24; ++step) {
    const Vertex u = static_cast<Vertex>(rng.below(n));
    Vertex v = static_cast<Vertex>(rng.below(n));
    if (v == u) v = (v + 1) % n;
    Graph toggled = g;
    if (toggled.has_edge(u, v)) {
      toggled.remove_edge(u, v);
    } else {
      toggled.add_edge(u, v);
    }
    if (!is_connected(toggled)) {
      trace.push_back(~std::uint64_t{0});
      continue;
    }
    const std::uint64_t proposal = unrest(toggled);
    trace.push_back(proposal);
    if (proposal < current) {
      g = std::move(toggled);
      current = proposal;
    }
  }
  return trace;
}

TEST(SimdParity, AnnealTrajectoriesMatchAcrossLevels) {
  LevelGuard guard;
  Xoshiro256ss rng(0x7247);
  for (int trial = 0; trial < 48; ++trial) {
    const Graph g = parity_instance(trial, rng);
    if (g.num_vertices() < 4) continue;
    const std::uint64_t seed = rng();
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      simd_set_level(SimdLevel::Scalar);
      const std::vector<std::uint64_t> want = run_trajectory(g, model, seed);
      for (const SimdLevel level : available_levels()) {
        if (level == SimdLevel::Scalar) continue;
        simd_set_level(level);
        EXPECT_EQ(run_trajectory(g, model, seed), want)
            << "trial " << trial << " model " << (model == UsageCost::Sum ? "sum" : "max")
            << " level " << simd_level_name(level);
      }
    }
  }
}

}  // namespace
}  // namespace bncg
