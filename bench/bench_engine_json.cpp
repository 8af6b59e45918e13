// Engine-vs-naive certification throughput, emitted as machine-readable
// JSON so the perf trajectory is tracked across PRs (BENCH_engine.json at
// the repo root; regenerate with bench/run_bench.sh).
//
// For each (n, m, model) the program certifies the same random connected
// G(n, m) instance:
//   * with the delta-evaluation SwapEngine at its auto-selected distance
//     width (the headline engine numbers),
//   * with the width forced to u8 and to u16 — the ratio of those two runs
//     is the width-adaptivity payoff (DESIGN.md §10) on an instance whose
//     diameter fits the 8-bit cap,
//   * through the sharded certification driver (core/certify_sharded.hpp),
//   * and, on the m = 2n rows, with the naive BFS-per-candidate oracle
//     (the dense m = 4n tier skips the oracle — it needs several minutes
//     per run and the m = 2n rows already track that trajectory; its JSON
//     fields are emitted as null).
// Every pair of certifications is asserted identical (verdict and move
// count) before a row is written. Plain std::chrono harness (no
// google-benchmark) so the output format is fully under our control.
//
// Three game-variant sections track the PR-8 k-move engine paths, each
// engine-vs-naive on the same instance with the answers asserted identical
// before a row is written:
//   * "kstability" — whole-graph k-insertion sweeps (k ∈ {1,2,3}) of the
//     star equilibrium (n = 256 and n = 1024), stable at every agent so the
//     sweep runs full length; the exact cover solver is shared code, so the
//     rows isolate the distance machinery the engine accelerates,
//   * "alpha_game" — α-game greedy-deviation scans over an agent sample
//     (engine: one masked APSP per agent; naive: one BFS per candidate
//     move),
//   * "tree_game" — best tree swaps for every agent of a random tree
//     (single-rooting O(n) rerooting sweep vs the component-BFS oracle).
//
// A "row_cache" section (PR 10) prices the budgeted distance provider:
// the same instance is certified dense and under a half-slab memory budget
// (certificates asserted identical), then a single-scratch sweep harvests
// the cache's hit/miss/eviction/peak-bytes counters — the telemetry DESIGN.md
// §16 quotes for the residency-vs-recompute trade.
//
// A "masked_rows" section prices the dense scan's masked-row layer
// (DESIGN.md §17) on G(1024, 2048) and the rotated torus at k = 20: per
// sampled agent, the sparse repair of G − v over the shared unmasked slab
// against the full masked APSP it replaced (both serial, one lane), the
// fractions of rows and entries masking changes, and the peak patch bytes
// one lane held. Every repaired row is asserted equal to the masked APSP
// before a row is written.
//
// A "far_filter" section prices the budgeted max scan's far filter
// (DESIGN.md §16) on the seeded-relabel rotated torus at k = 26 under a
// 1 MiB budget — the instance and budget of perfbench's torus-max-service
// workload: a serial best_deviation sweep over every agent (max model with
// deletions) reports milliseconds, row-cache misses and far-set reach
// traversals per agent. The sweep's verdict and move count are asserted
// equal to the dense certificate before the row is written.
//
// A second "kernels" section microbenchmarks the dispatched SIMD kernels
// (util/simd.hpp) directly: each scan-table / combine / addition kernel is
// timed at n = 1024 once with the dispatch pinned to scalar and once at the
// startup-active level (cpuid-capped, BNCG_SIMD-overridable), on the same
// inputs and with identical fixed repetition counts, so the per-call ratio
// is a pure ISA effect. Output checksums are asserted equal across the two
// levels — the exactness contract, enforced even inside the bench.
//
// Usage: bench_engine_json [output.json] [max_n]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json_meta.hpp"
#include "core/certify_sharded.hpp"
#include "core/classic_game.hpp"
#include "core/dist_provider.hpp"
#include "core/equilibrium.hpp"
#include "core/kstability.hpp"
#include "core/swap_engine.hpp"
#include "core/tree_game.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/dist_width.hpp"
#include "graph/masked_repair.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace bncg;
using Clock = std::chrono::steady_clock;

struct Row {
  Vertex n = 0;
  std::size_t m = 0;
  std::string model;
  Vertex diameter = 0;
  std::uint64_t moves = 0;
  std::string width;  // auto-selected preference
  std::uint64_t width_fallbacks = 0;
  double engine_seconds = 0.0;  // auto width
  double u8_seconds = 0.0;
  double u16_seconds = 0.0;
  double sharded_seconds = 0.0;
  std::size_t shards = 0;
  double naive_seconds = -1.0;  // < 0 ⇒ not measured (dense tier)

  [[nodiscard]] double engine_swaps_per_sec() const {
    return static_cast<double>(moves) / engine_seconds;
  }
  [[nodiscard]] double width_speedup() const { return u16_seconds / u8_seconds; }
  [[nodiscard]] bool has_naive() const { return naive_seconds > 0.0; }
  [[nodiscard]] double naive_swaps_per_sec() const {
    return static_cast<double>(moves) / naive_seconds;
  }
  [[nodiscard]] double speedup() const { return naive_seconds / engine_seconds; }
};

template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Repeats fast certifications until ≥ 0.2 s of wall time for a stable
/// rate; reports the repetition count so per-run counters (the engine's
/// width_fallbacks accumulate across certify() calls) can be de-scaled.
template <typename Fn>
double time_repeated(Fn&& fn, std::uint64_t* reps_out = nullptr) {
  std::uint64_t reps = 0;
  double total = 0.0;
  while (total < 0.2 && reps < 1000) {
    total += time_seconds(fn);
    ++reps;
  }
  if (reps_out != nullptr) *reps_out = reps;
  return total / static_cast<double>(reps);
}

Row measure(Vertex n, std::size_t m, UsageCost model, bool measure_naive) {
  Xoshiro256ss rng(0xBE7C ^ n);
  const Graph g = random_connected_gnm(n, m, rng);
  const bool deletions = model == UsageCost::Max;

  Row row;
  row.n = n;
  row.m = m;
  row.model = model == UsageCost::Sum ? "sum" : "max";
  row.diameter = diameter(g);

  const auto check = [&](const EquilibriumCertificate& a, const EquilibriumCertificate& b,
                         const char* what) {
    if (a.is_equilibrium != b.is_equilibrium || a.moves_checked != b.moves_checked) {
      std::cerr << "FATAL: " << what << " mismatch at n=" << n << " m=" << m
                << " model=" << row.model << "\n";
      std::exit(1);
    }
  };

  const SwapEngine engine_auto(g);
  EquilibriumCertificate cert;
  std::uint64_t reps = 0;
  row.engine_seconds =
      time_repeated([&] { cert = engine_auto.certify(model, deletions); }, &reps);
  row.moves = cert.moves_checked;
  row.width = dist_width_name(engine_auto.preferred_width());
  row.width_fallbacks = engine_auto.width_fallbacks() / reps;  // per-certification count

  const SwapEngine engine_u8(g, WidthPolicy::ForceU8);
  EquilibriumCertificate cert_u8;
  row.u8_seconds = time_repeated([&] { cert_u8 = engine_u8.certify(model, deletions); });
  check(cert, cert_u8, "engine auto/u8");

  const SwapEngine engine_u16(g, WidthPolicy::ForceU16);
  EquilibriumCertificate cert_u16;
  row.u16_seconds = time_repeated([&] { cert_u16 = engine_u16.certify(model, deletions); });
  check(cert, cert_u16, "engine auto/u16");

  ShardedCertificate sharded;
  row.sharded_seconds = time_repeated([&] { sharded = certify_sharded(g, model, deletions); });
  row.shards = sharded.shards_used;
  check(cert, sharded.certificate, "engine/sharded");

  if (measure_naive) {
    EquilibriumCertificate naive_cert;
    row.naive_seconds = time_seconds([&] {
      naive_cert = model == UsageCost::Sum ? naive::certify_sum_equilibrium(g)
                                           : naive::certify_max_equilibrium(g);
    });
    check(cert, naive_cert, "engine/naive");
  }
  return row;
}

// ---------------------------------------------------------------------------
// Game-variant rows (PR 8): the k-move engine paths vs the bncg::naive
// oracles, answers asserted identical before timing is recorded.

[[noreturn]] void variant_mismatch(const char* what, Vertex n) {
  std::cerr << "FATAL: " << what << " engine/naive mismatch at n=" << n << "\n";
  std::exit(1);
}

struct KStabilityRow {
  std::string instance;
  Vertex n = 0;
  std::size_t m = 0;
  Vertex k = 0;
  bool stable = false;
  double engine_seconds = 0.0;
  double naive_seconds = 0.0;

  [[nodiscard]] double speedup() const { return naive_seconds / engine_seconds; }
};

std::vector<KStabilityRow> measure_kstability(Vertex max_n) {
  // The exact set-cover solver is SHARED between engine and naive
  // (cover_select), so these rows isolate what the engine actually
  // accelerates: the distance machinery (batched bit-parallel APSP + SIMD
  // far/cover row scans vs one scalar BFS per row + scalar scans). Instances
  // with giant far spheres (e.g. diagonal tori) make the shared solver
  // dominate both sides and the ratio collapses to 1× by construction —
  // those live in the differential suites, not here.
  //
  // Workload: whole-graph insertion_stability sweeps of the star — the
  // paper's Theorem 1 equilibrium, and the natural "certify the known
  // equilibrium is k-insertion-robust" question. Every agent is stable at
  // small k (a leaf's far sphere is all n − 2 non-neighbors and only x
  // itself relieves x, so no k ≤ 3 cover exists), which makes the sweep run
  // the far/cover machinery at ALL n agents with the shared solver staying
  // trivial (singleton sets) — the ratio is the distance machinery, at full
  // sweep length.
  std::vector<KStabilityRow> rows;
  for (const Vertex n : {Vertex{256}, Vertex{1024}}) {
    if (n > max_n) continue;
    const Graph g = star(n);
    for (Vertex k = 1; k <= 3; ++k) {
      KStabilityRow row;
      row.instance = "star_sweep";
      row.n = g.num_vertices();
      row.m = g.num_edges();
      row.k = k;
      KStabilityReport engine_report, naive_report;
      row.engine_seconds = time_repeated([&] { engine_report = insertion_stability(g, k); });
      row.naive_seconds =
          time_repeated([&] { naive_report = naive::insertion_stability(g, k); });
      if (engine_report.stable != naive_report.stable ||
          engine_report.witness_vertex != naive_report.witness_vertex ||
          engine_report.witness_endpoints != naive_report.witness_endpoints) {
        variant_mismatch("kstability", row.n);
      }
      row.stable = engine_report.stable;
      std::cout << "kstability " << row.instance << " n=" << row.n << " k=" << k
                << " stable=" << row.stable << " engine=" << row.engine_seconds
                << "s naive=" << row.naive_seconds << "s speedup=" << row.speedup() << "x\n";
      rows.push_back(row);
    }
  }
  return rows;
}

struct AlphaRow {
  Vertex n = 0;
  std::size_t m = 0;
  double alpha = 0.0;
  Vertex agents = 0;
  double engine_seconds = 0.0;
  double naive_seconds = 0.0;

  [[nodiscard]] double speedup() const { return naive_seconds / engine_seconds; }
};

std::vector<AlphaRow> measure_alpha_game(Vertex max_n) {
  // Greedy-deviation scans at α = 2 over an agent sample (the naive side
  // pays one BFS per candidate move — Θ(deg·n) BFS per agent — so the
  // n = 1024 row samples 16 agents; the ratio is per-agent and
  // sample-size-independent). Engine timing includes the SwapEngine build:
  // that is what a caller actually pays per graph version.
  std::vector<AlphaRow> rows;
  struct Tier {
    Vertex n;
    Vertex agents;
  };
  for (const Tier tier : {Tier{256, 64}, Tier{1024, 16}}) {
    if (tier.n > max_n) continue;
    Xoshiro256ss rng(0xA1FA ^ tier.n);
    const Graph g = random_connected_gnm(tier.n, 2 * std::size_t{tier.n}, rng);
    std::vector<Vertex> owners;
    owners.reserve(g.num_edges());
    for (const Edge& e : g.edges()) owners.push_back(rng.bernoulli(0.5) ? e.u : e.v);
    const ClassicGame game(g, /*alpha=*/2.0, owners);

    AlphaRow row;
    row.n = g.num_vertices();
    row.m = g.num_edges();
    row.alpha = 2.0;
    row.agents = tier.agents;

    std::vector<std::optional<ClassicMove>> engine_moves(tier.agents), naive_moves(tier.agents);
    row.engine_seconds = time_repeated([&] {
      const SwapEngine engine(g);
      SwapEngine::Scratch scratch;
      for (Vertex v = 0; v < tier.agents; ++v) {
        engine_moves[v] = game.best_deviation_engine(engine, scratch, v);
      }
    });
    row.naive_seconds = time_seconds([&] {
      BfsWorkspace ws;
      for (Vertex v = 0; v < tier.agents; ++v) {
        naive_moves[v] = game.best_deviation_naive(v, ws);
      }
    });
    for (Vertex v = 0; v < tier.agents; ++v) {
      const auto& a = engine_moves[v];
      const auto& b = naive_moves[v];
      if (a.has_value() != b.has_value() ||
          (a && (a->type != b->type || a->w != b->w || a->w2 != b->w2 || a->gain != b->gain))) {
        variant_mismatch("alpha_game", row.n);
      }
    }
    std::cout << "alpha_game n=" << row.n << " agents=" << row.agents
              << " engine=" << row.engine_seconds << "s naive=" << row.naive_seconds
              << "s speedup=" << row.speedup() << "x\n";
    rows.push_back(row);
  }
  return rows;
}

struct TreeRow {
  Vertex n = 0;
  std::uint64_t movers = 0;  ///< agents with an improving swap
  double engine_seconds = 0.0;
  double naive_seconds = 0.0;

  [[nodiscard]] double speedup() const { return naive_seconds / engine_seconds; }
};

std::vector<TreeRow> measure_tree_game(Vertex max_n) {
  // Best tree swap for every agent: the O(n) single-rooting sweep vs the
  // component-BFS + induced-subgraph oracle, full n-agent sweeps both sides.
  std::vector<TreeRow> rows;
  for (const Vertex n : {Vertex{256}, Vertex{1024}}) {
    if (n > max_n) continue;
    Xoshiro256ss rng(0x73EE ^ n);
    const Graph tree = random_tree(n, rng);

    TreeRow row;
    row.n = n;
    std::vector<std::optional<TreeMove>> engine_moves(n), naive_moves(n);
    TreeGameScratch scratch;  // sweeps amortize the per-call allocations
    row.engine_seconds = time_repeated([&] {
      for (Vertex v = 0; v < n; ++v) engine_moves[v] = best_tree_deviation(tree, v, scratch);
    });
    row.naive_seconds = time_repeated([&] {
      for (Vertex v = 0; v < n; ++v) naive_moves[v] = naive::best_tree_deviation(tree, v);
    });
    for (Vertex v = 0; v < n; ++v) {
      const auto& a = engine_moves[v];
      const auto& b = naive_moves[v];
      if (a.has_value() != b.has_value() ||
          (a && (a->old_neighbor != b->old_neighbor || a->new_neighbor != b->new_neighbor ||
                 a->gain != b->gain))) {
        variant_mismatch("tree_game", n);
      }
      row.movers += a.has_value() ? 1 : 0;
    }
    std::cout << "tree_game n=" << row.n << " movers=" << row.movers
              << " engine=" << row.engine_seconds << "s naive=" << row.naive_seconds
              << "s speedup=" << row.speedup() << "x\n";
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Row-cache rows (PR 10): dense vs budgeted certification of the same
// instance, certificates asserted identical, plus the cache telemetry from
// a single-scratch sweep.

struct RowCacheRow {
  std::string instance;
  Vertex n = 0;
  std::size_t m = 0;
  std::string model;
  std::uint64_t budget_bytes = 0;  ///< per-lane cap handed to the engine
  std::uint64_t dense_bytes = 0;   ///< what the dense u16 slab would take
  std::uint64_t moves = 0;
  double dense_seconds = 0.0;
  double budgeted_seconds = 0.0;
  RowCacheStats stats;  ///< from the single-scratch sweep (not the timed runs)

  [[nodiscard]] double slowdown() const { return budgeted_seconds / dense_seconds; }
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = stats.hits + stats.misses;
    return total == 0 ? 0.0 : static_cast<double>(stats.hits) / static_cast<double>(total);
  }
};

RowCacheRow measure_row_cache(std::string instance, const Graph& g, UsageCost model) {
  const Vertex n = g.num_vertices();
  const bool deletions = model == UsageCost::Max;

  RowCacheRow row;
  row.instance = std::move(instance);
  row.n = n;
  row.m = g.num_edges();
  row.model = model == UsageCost::Sum ? "sum" : "max";
  row.dense_bytes = 2ull * n * n;  // the u16 slab the budget displaces

  // Half the u16 slab per engine lane: big enough that neighbor rows stay
  // resident, small enough that far/candidate traffic has to recycle blocks.
  const std::size_t lanes = ThreadPool::global().size();
  ResourceConfig budgeted_res;
  budgeted_res.width = WidthPolicy::ForceU16;
  budgeted_res.mem_budget = static_cast<std::uint64_t>(lanes) * n * n;
  row.budget_bytes = static_cast<std::uint64_t>(n) * n;

  const SwapEngine dense_engine(g, WidthPolicy::ForceU16);
  const SwapEngine budgeted_engine(g, budgeted_res);
  if (budgeted_engine.budget_policy().storage_for(n, DistWidth::U16) != RowStorage::Budgeted) {
    std::cerr << "FATAL: row_cache bench budget did not force budgeted storage at n=" << n
              << "\n";
    std::exit(1);
  }

  EquilibriumCertificate dense_cert, budgeted_cert;
  row.dense_seconds = time_repeated([&] { dense_cert = dense_engine.certify(model, deletions); });
  row.budgeted_seconds =
      time_repeated([&] { budgeted_cert = budgeted_engine.certify(model, deletions); });
  if (dense_cert.is_equilibrium != budgeted_cert.is_equilibrium ||
      dense_cert.moves_checked != budgeted_cert.moves_checked) {
    std::cerr << "FATAL: row_cache dense/budgeted certificate mismatch at n=" << n
              << " model=" << row.model << "\n";
    std::exit(1);
  }
  row.moves = dense_cert.moves_checked;

  // The timed certify() runs keep their counters in per-lane scratches; one
  // sequential sweep over every agent reproduces the access pattern with a
  // single observable scratch.
  SwapEngine::Scratch scratch;
  for (Vertex v = 0; v < n; ++v) {
    (void)budgeted_engine.best_deviation(v, model, scratch, /*include_deletions=*/deletions);
  }
  row.stats = scratch.row_cache_stats();
  return row;
}

std::vector<RowCacheRow> measure_row_cache_all(Vertex max_n) {
  std::vector<RowCacheRow> rows;
  if (max_n >= 1024) {
    Xoshiro256ss rng(0xBE7C ^ Vertex{1024});
    const Graph g = random_connected_gnm(1024, 2048, rng);
    rows.push_back(measure_row_cache("gnm", g, UsageCost::Sum));
    rows.push_back(measure_row_cache("gnm", g, UsageCost::Max));
  }
  if (max_n >= 512) {
    // The paper-family instance the 2^17 budget smoke scales up
    // (scripts/certify_budget.sh): Theorem 12's rotated torus.
    rows.push_back(measure_row_cache("torus_k16", rotated_torus(16).graph(), UsageCost::Max));
  }
  for (const RowCacheRow& r : rows) {
    std::cout << "row_cache " << r.instance << " n=" << r.n << " model=" << r.model
              << " dense=" << r.dense_seconds << "s budgeted=" << r.budgeted_seconds
              << "s slowdown=" << r.slowdown() << "x hit_rate=" << r.hit_rate()
              << " evictions=" << r.stats.evictions << " peak_bytes=" << r.stats.peak_bytes
              << "\n";
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Masked rows: sparse repair over the shared slab vs the per-agent masked APSP.

struct MaskedRowsRow {
  std::string instance;
  Vertex n = 0;
  std::size_t m = 0;
  Vertex agents = 0;              // sampled agents
  double slab_build_seconds = 0;  // one unmasked APSP per snapshot, on the pool
  double repair_seconds = 0;      // per agent
  double masked_apsp_seconds = 0;  // per agent
  double affected_row_fraction = 0;
  double changed_entry_fraction = 0;
  std::size_t peak_patch_bytes = 0;

  [[nodiscard]] double speedup() const { return masked_apsp_seconds / repair_seconds; }
};

MaskedRowsRow measure_masked_rows(std::string instance, const Graph& g) {
  using Dist = std::uint8_t;
  constexpr Dist kInf = kSearchInf8;
  constexpr Dist kMax = kMaxFiniteFor<std::uint8_t>;
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  const std::size_t cells = static_cast<std::size_t>(n) * n;

  MaskedRowsRow row;
  row.instance = std::move(instance);
  row.n = n;
  row.m = g.num_edges();
  AlignedVec<Dist> slab(cells), masked(cells);
  AlignedVec<Dist> repaired(n);
  bool fits = false;
  row.slab_build_seconds =
      time_repeated([&] { fits = build_unmasked_slab<Dist>(csr, slab.data(), kInf, kMax); });
  BatchBfsWorkspace ws;
  MaskedRowRepair<Dist> repair;
  std::uint64_t affected = 0;
  std::uint64_t changed = 0;
  const Vertex step = std::max<Vertex>(1, n / 128);
  for (Vertex v = 0; v < n; v += step) {
    bool ok = fits;
    row.repair_seconds +=
        time_seconds([&] { ok = ok && repair.run(csr, slab.data(), v, kInf, kMax); });
    row.masked_apsp_seconds += time_seconds([&] {
      ok = ok && csr_apsp_capped<Dist>(csr, MaskedEdge{}, masked.data(), ws, v, kInf, kMax);
    });
    for (Vertex x = 0; ok && x < n; ++x) {
      if (x == v) continue;
      repair.materialize(x, repaired.data());
      const Dist* want = masked.data() + static_cast<std::size_t>(x) * n;
      for (Vertex u = 0; u < n; ++u) ok = ok && (u == v || repaired[u] == want[u]);
    }
    if (!ok) {
      std::cerr << "FATAL: masked_rows repair mismatch on " << row.instance << " agent " << v
                << "\n";
      std::exit(1);
    }
    affected += repair.affected_rows();
    changed += repair.changed_entries();
    ++row.agents;
  }
  row.repair_seconds /= row.agents;
  row.masked_apsp_seconds /= row.agents;
  row.affected_row_fraction =
      static_cast<double>(affected) / (static_cast<double>(row.agents) * (n - 1));
  row.changed_entry_fraction =
      static_cast<double>(changed) / (static_cast<double>(row.agents) * (n - 1) * (n - 1));
  row.peak_patch_bytes = repair.peak_patch_bytes();
  return row;
}

std::vector<MaskedRowsRow> measure_masked_rows_all(Vertex max_n) {
  std::vector<MaskedRowsRow> rows;
  if (max_n >= 1024) {
    Xoshiro256ss rng(0xBE7C ^ Vertex{1024});
    rows.push_back(measure_masked_rows("gnm", random_connected_gnm(1024, 2048, rng)));
  }
  if (max_n >= 512) {
    rows.push_back(measure_masked_rows("torus_k20", rotated_torus(20).graph()));
  }
  for (const MaskedRowsRow& r : rows) {
    std::cout << "masked_rows " << r.instance << " n=" << r.n << " agents=" << r.agents
              << " repair=" << r.repair_seconds * 1e3 << "ms masked_apsp="
              << r.masked_apsp_seconds * 1e3 << "ms speedup=" << r.speedup()
              << "x affected_rows=" << r.affected_row_fraction
              << " changed_entries=" << r.changed_entry_fraction
              << " peak_patch_bytes=" << r.peak_patch_bytes << "\n";
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Far filter: the budgeted max scan, one serial sweep over every agent.

struct FarFilterRow {
  std::string instance;
  Vertex n = 0;
  std::size_t m = 0;
  std::uint64_t budget_bytes = 0;       // the engine's whole budget
  std::uint64_t lane_budget_bytes = 0;  // the share one scan lane gets
  std::string width;
  std::uint64_t moves = 0;
  double ms_per_agent = 0.0;
  double misses_per_agent = 0.0;
  double reach_traversals_per_agent = 0.0;
};

FarFilterRow measure_far_filter(Vertex k) {
  // Seeded relabel, so the far sets are not contiguous id ranges.
  const Graph native = rotated_torus(k).graph();
  const Vertex n = native.num_vertices();
  std::vector<Vertex> label(n);
  for (Vertex i = 0; i < n; ++i) label[i] = i;
  Xoshiro256ss rng(0xFA2F ^ k);
  rng.shuffle(label);
  Graph g(n);
  for (const Edge& e : native.edges()) g.add_edge(label[e.u], label[e.v]);

  FarFilterRow row;
  row.instance = "torus_k" + std::to_string(k) + "_relabeled";
  row.n = n;
  row.m = g.num_edges();
  ResourceConfig res;
  res.mem_budget = std::uint64_t{1} << 20;
  const SwapEngine engine(g, res);
  row.budget_bytes = res.mem_budget;
  row.lane_budget_bytes = engine.budget_policy().lane_budget();
  row.width = engine.preferred_width() == DistWidth::U8 ? "u8" : "u16";
  if (engine.budget_policy().storage_for(n, engine.preferred_width()) != RowStorage::Budgeted) {
    std::cerr << "FATAL: far_filter bench budget did not force budgeted storage at n=" << n
              << "\n";
    std::exit(1);
  }

  SwapEngine::Scratch scratch;
  bool improvable = false;
  const double seconds = time_seconds([&] {
    for (Vertex v = 0; v < n; ++v) {
      improvable |= engine
                        .best_deviation(v, UsageCost::Max, scratch, /*include_deletions=*/true,
                                        &row.moves)
                        .has_value();
    }
  });
  const EquilibriumCertificate dense =
      SwapEngine(g, res.width).certify(UsageCost::Max, /*include_deletions=*/true);
  if (dense.is_equilibrium == improvable || dense.moves_checked != row.moves) {
    std::cerr << "FATAL: far_filter sweep disagrees with the dense certificate on "
              << row.instance << "\n";
    std::exit(1);
  }
  row.ms_per_agent = seconds * 1e3 / n;
  row.misses_per_agent = static_cast<double>(scratch.row_cache_stats().misses) / n;
  row.reach_traversals_per_agent = static_cast<double>(scratch.reach_traversals()) / n;
  std::cout << "far_filter " << row.instance << " n=" << n << " width=" << row.width
            << " ms_per_agent=" << row.ms_per_agent << " misses_per_agent=" << row.misses_per_agent
            << " reach_traversals_per_agent=" << row.reach_traversals_per_agent << "\n";
  return row;
}

// ---------------------------------------------------------------------------
// Kernel microbenchmarks: scalar vs the startup-active dispatch level.

struct KernelRow {
  std::string width;   // "u8" / "u16"
  std::string kernel;  // simd::Kernels member name
  std::uint32_t n = 0;
  double scalar_seconds = 0.0;  // seconds per call, dispatch pinned to scalar
  double simd_seconds = 0.0;    // seconds per call at the startup-active level

  [[nodiscard]] double speedup() const { return scalar_seconds / simd_seconds; }
};

template <typename Fn>
double time_calls(Fn&& fn, std::uint64_t reps) {
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double>(Clock::now() - start).count() /
         static_cast<double>(reps);
}

/// Times the named kernel workload once per dispatch level on identical
/// state (reset() restores mutable inputs, checksum() folds the outputs) and
/// asserts the two levels produced bit-identical results before recording
/// the row. `active` is the level the process started at — comparing
/// against it (not the hardware max) keeps BNCG_SIMD=scalar runs honest.
template <typename Reset, typename Run, typename Checksum>
void bench_kernel(std::vector<KernelRow>& rows, const char* width, const char* name,
                  std::uint32_t n, std::uint64_t reps, SimdLevel active, Reset&& reset,
                  Run&& run, Checksum&& checksum) {
  KernelRow row;
  row.width = width;
  row.kernel = name;
  row.n = n;

  simd_set_level(SimdLevel::Scalar);
  reset();
  row.scalar_seconds = time_calls(run, reps);
  const std::uint64_t scalar_sum = checksum();

  simd_set_level(active);
  reset();
  row.simd_seconds = time_calls(run, reps);
  const std::uint64_t simd_sum = checksum();

  if (scalar_sum != simd_sum) {
    std::cerr << "FATAL: kernel " << width << "/" << name
              << " diverged between scalar and " << simd_level_name(active) << "\n";
    std::exit(1);
  }
  rows.push_back(row);
}

template <typename Dist>
void measure_kernels(std::vector<KernelRow>& rows, SimdLevel active) {
  constexpr std::uint32_t n = 1024;
  constexpr Dist inf = kSearchInfFor<Dist>;
  const char* width = sizeof(Dist) == 1 ? "u8" : "u16";
  const simd::Kernels<Dist>& kern = simd::kernels<Dist>();
  Xoshiro256ss rng(0xC0DE ^ sizeof(Dist));

  const auto rand_row = [&](AlignedVec<Dist>& row) {
    row.resize(n);
    for (Dist& d : row) {
      // Mostly small finite distances with an infinite sprinkle, the shape
      // the engines actually stream.
      d = rng.below(16) == 0 ? inf : static_cast<Dist>(rng.below(kMaxFiniteFor<Dist>));
    }
  };

  constexpr std::size_t kFolds = 8;  // neighbor rows per scan_min_update call
  std::vector<AlignedVec<Dist>> nbr(kFolds);
  for (auto& row : nbr) rand_row(row);
  AlignedVec<Dist> m, c, ru, rv, src;
  rand_row(m);
  rand_row(c);
  rand_row(ru);
  rand_row(rv);
  rand_row(src);

  AlignedVec<Dist> min1(n), min2(n), dst(n);
  AlignedVec<std::uint32_t> argmin(n), r1(n);
  const auto fold_u64 = [](const auto& v) {
    std::uint64_t sum = 0;
    for (const auto x : v) sum = sum * 1315423911u + static_cast<std::uint64_t>(x);
    return sum;
  };

  // scan_min_update: reset tables, fold kFolds neighbor rows per call.
  bench_kernel(
      rows, width, "scan_min_update", n, 4000, active,
      [&] {
        min1.assign(n, inf);
        min2.assign(n, inf);
        argmin.assign(n, kNoVertex);
      },
      [&] {
        min1.assign(n, inf);
        min2.assign(n, inf);
        argmin.assign(n, kNoVertex);
        for (std::size_t z = 0; z < kFolds; ++z) {
          kern.scan_min_update(min1.data(), min2.data(), argmin.data(), nbr[z].data(),
                               static_cast<std::uint32_t>(z), n);
        }
      },
      [&] { return fold_u64(min1) ^ fold_u64(min2) ^ fold_u64(argmin); });

  // select_mrow: materialize M^w from the tables just built, w cycling.
  std::uint32_t w = 0;
  bench_kernel(
      rows, width, "select_mrow", n, 20000, active, [&] { w = 0; },
      [&] {
        kern.select_mrow(dst.data(), min1.data(), min2.data(), argmin.data(), w, n);
        w = (w + 1) % kFolds;
      },
      [&] { return fold_u64(dst); });

  // r1_add: accumulate one row's relief contribution per call (u32
  // wraparound is deterministic, so the accumulated table checksums).
  bench_kernel(
      rows, width, "r1_add", n, 20000, active, [&] { r1.assign(n, 0); },
      [&] { kern.r1_add(r1.data(), static_cast<Dist>(3), src.data(), n); },
      [&] { return fold_u64(r1); });

  std::uint64_t acc = 0;
  bench_kernel(
      rows, width, "combine_sum", n, 20000, active, [&] { acc = 0; },
      [&] { acc += kern.combine_sum(m.data(), c.data(), n, inf); },
      [&] { return acc; });

  bench_kernel(
      rows, width, "combine_max", n, 20000, active, [&] { acc = 0; },
      [&] { acc += kern.combine_max(m.data(), c.data(), n, inf); },
      [&] { return acc; });

  bench_kernel(
      rows, width, "addition_row", n, 20000, active, [&] { dst.assign(n, 0); },
      [&] {
        kern.addition_row(src.data(), dst.data(), ru.data(), rv.data(), static_cast<Dist>(2),
                          static_cast<Dist>(3), n, inf);
      },
      [&] { return fold_u64(dst); });
}

std::vector<KernelRow> measure_all_kernels() {
  const SimdLevel active = simd_active_level();
  std::vector<KernelRow> rows;
  measure_kernels<std::uint8_t>(rows, active);
  measure_kernels<std::uint16_t>(rows, active);
  simd_set_level(active);  // restore the startup dispatch for any later code
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  Vertex max_n = 1024;
  if (argc > 2) {
    try {
      max_n = static_cast<Vertex>(std::stoul(argv[2]));
    } catch (const std::exception&) {
      std::cerr << "usage: bench_engine_json [output.json] [max_n]\n";
      return 2;
    }
  }

  struct Tier {
    Vertex n;
    std::size_t m_factor;
    bool naive;
  };
  // m = 2n rows keep the PR-1 naive trajectory; the m = 4n row is the
  // combine-bound tier where the width adaptivity pays the most.
  const std::vector<Tier> tiers = {{256, 2, true}, {1024, 2, true}, {1024, 4, false}};

  std::vector<Row> rows;
  for (const Tier& tier : tiers) {
    if (tier.n > max_n) continue;
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const Row row = measure(tier.n, tier.m_factor * tier.n, model, tier.naive);
      std::cout << "n=" << row.n << " m=" << row.m << " model=" << row.model
                << " diameter=" << row.diameter << " moves=" << row.moves
                << " width=" << row.width << " engine=" << row.engine_seconds
                << "s u8=" << row.u8_seconds << "s u16=" << row.u16_seconds
                << "s width_speedup=" << row.width_speedup()
                << "x sharded=" << row.sharded_seconds << "s";
      if (row.has_naive()) {
        std::cout << " naive=" << row.naive_seconds << "s speedup=" << row.speedup() << "x";
      }
      std::cout << "\n";
      rows.push_back(row);
    }
  }

  const std::vector<KStabilityRow> kstability_rows = measure_kstability(max_n);
  const std::vector<AlphaRow> alpha_rows = measure_alpha_game(max_n);
  const std::vector<TreeRow> tree_rows = measure_tree_game(max_n);
  const std::vector<RowCacheRow> row_cache_rows = measure_row_cache_all(max_n);
  const std::vector<MaskedRowsRow> masked_rows = measure_masked_rows_all(max_n);
  std::vector<FarFilterRow> far_filter_rows;
  if (max_n >= 1024) far_filter_rows.push_back(measure_far_filter(26));

  const std::vector<KernelRow> kernel_rows = measure_all_kernels();
  for (const KernelRow& k : kernel_rows) {
    std::cout << "kernel " << k.width << "/" << k.kernel << " n=" << k.n
              << " scalar=" << k.scalar_seconds * 1e9 << "ns simd=" << k.simd_seconds * 1e9
              << "ns speedup=" << k.speedup() << "x\n";
  }

  std::ofstream out(out_path);
  out << "{\n";
  bncg_bench::write_json_meta(out);
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"n\": " << r.n << ", \"m\": " << r.m << ", \"model\": \"" << r.model << "\""
        << ", \"diameter\": " << r.diameter << ", \"moves_checked\": " << r.moves
        << ", \"width\": \"" << r.width << "\""
        << ", \"width_fallbacks\": " << r.width_fallbacks
        << ", \"engine_seconds\": " << r.engine_seconds
        << ", \"engine_swaps_per_sec\": " << r.engine_swaps_per_sec()
        << ", \"u8_seconds\": " << r.u8_seconds << ", \"u16_seconds\": " << r.u16_seconds
        << ", \"width_speedup\": " << r.width_speedup()
        << ", \"sharded_seconds\": " << r.sharded_seconds << ", \"shards\": " << r.shards;
    if (r.has_naive()) {
      out << ", \"naive_skipped\": false, \"naive_seconds\": " << r.naive_seconds
          << ", \"naive_swaps_per_sec\": " << r.naive_swaps_per_sec()
          << ", \"speedup\": " << r.speedup();
    } else {
      // The dense tier deliberately skips the minutes-long oracle run; say
      // so explicitly instead of emitting bare nulls.
      out << ", \"naive_skipped\": true";
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"kstability\": [\n";
  for (std::size_t i = 0; i < kstability_rows.size(); ++i) {
    const KStabilityRow& r = kstability_rows[i];
    out << "    {\"instance\": \"" << r.instance << "\", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"k\": " << r.k << ", \"stable\": " << (r.stable ? "true" : "false")
        << ", \"engine_seconds\": " << r.engine_seconds
        << ", \"naive_seconds\": " << r.naive_seconds << ", \"speedup\": " << r.speedup()
        << "}" << (i + 1 < kstability_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"alpha_game\": [\n";
  for (std::size_t i = 0; i < alpha_rows.size(); ++i) {
    const AlphaRow& r = alpha_rows[i];
    out << "    {\"n\": " << r.n << ", \"m\": " << r.m << ", \"alpha\": " << r.alpha
        << ", \"agents\": " << r.agents << ", \"engine_seconds\": " << r.engine_seconds
        << ", \"naive_seconds\": " << r.naive_seconds << ", \"speedup\": " << r.speedup()
        << "}" << (i + 1 < alpha_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"tree_game\": [\n";
  for (std::size_t i = 0; i < tree_rows.size(); ++i) {
    const TreeRow& r = tree_rows[i];
    out << "    {\"n\": " << r.n << ", \"movers\": " << r.movers
        << ", \"engine_seconds\": " << r.engine_seconds
        << ", \"naive_seconds\": " << r.naive_seconds << ", \"speedup\": " << r.speedup()
        << "}" << (i + 1 < tree_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"row_cache\": [\n";
  for (std::size_t i = 0; i < row_cache_rows.size(); ++i) {
    const RowCacheRow& r = row_cache_rows[i];
    out << "    {\"instance\": \"" << r.instance << "\", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"model\": \"" << r.model << "\""
        << ", \"budget_bytes\": " << r.budget_bytes << ", \"dense_bytes\": " << r.dense_bytes
        << ", \"moves_checked\": " << r.moves << ", \"dense_seconds\": " << r.dense_seconds
        << ", \"budgeted_seconds\": " << r.budgeted_seconds
        << ", \"slowdown\": " << r.slowdown() << ", \"hits\": " << r.stats.hits
        << ", \"misses\": " << r.stats.misses << ", \"hit_rate\": " << r.hit_rate()
        << ", \"evictions\": " << r.stats.evictions << ", \"contexts\": " << r.stats.contexts
        << ", \"peak_bytes\": " << r.stats.peak_bytes << "}"
        << (i + 1 < row_cache_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"masked_rows\": [\n";
  for (std::size_t i = 0; i < masked_rows.size(); ++i) {
    const MaskedRowsRow& r = masked_rows[i];
    out << "    {\"instance\": \"" << r.instance << "\", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"width\": \"u8\", \"agents\": " << r.agents
        << ", \"slab_build_seconds\": " << r.slab_build_seconds
        << ", \"repair_seconds_per_agent\": " << r.repair_seconds
        << ", \"masked_apsp_seconds_per_agent\": " << r.masked_apsp_seconds
        << ", \"speedup\": " << r.speedup()
        << ", \"affected_row_fraction\": " << r.affected_row_fraction
        << ", \"changed_entry_fraction\": " << r.changed_entry_fraction
        << ", \"peak_patch_bytes\": " << r.peak_patch_bytes << "}"
        << (i + 1 < masked_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"far_filter\": [\n";
  for (std::size_t i = 0; i < far_filter_rows.size(); ++i) {
    const FarFilterRow& r = far_filter_rows[i];
    out << "    {\"instance\": \"" << r.instance << "\", \"n\": " << r.n << ", \"m\": " << r.m
        << ", \"model\": \"max+del\", \"width\": \"" << r.width << "\""
        << ", \"budget_bytes\": " << r.budget_bytes
        << ", \"lane_budget_bytes\": " << r.lane_budget_bytes
        << ", \"moves_checked\": " << r.moves << ", \"ms_per_agent\": " << r.ms_per_agent
        << ", \"misses_per_agent\": " << r.misses_per_agent
        << ", \"reach_traversals_per_agent\": " << r.reach_traversals_per_agent << "}"
        << (i + 1 < far_filter_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelRow& k = kernel_rows[i];
    out << "    {\"width\": \"" << k.width << "\", \"kernel\": \"" << k.kernel << "\""
        << ", \"n\": " << k.n << ", \"scalar_seconds_per_call\": " << k.scalar_seconds
        << ", \"simd_seconds_per_call\": " << k.simd_seconds
        << ", \"speedup\": " << k.speedup() << "}"
        << (i + 1 < kernel_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
