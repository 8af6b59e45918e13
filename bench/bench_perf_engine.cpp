// Engine microbenchmarks (google-benchmark): BFS, APSP, swap evaluation,
// certifier and dynamics throughput. These are the inner loops whose cost
// model DESIGN.md's complexity notes rely on.
#include <benchmark/benchmark.h>

#include "core/certify_sharded.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/kstability.hpp"
#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/apsp.hpp"
#include "graph/bfs_batch.hpp"
#include "graph/csr.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace bncg;

Graph test_graph(Vertex n) {
  Xoshiro256ss rng(0xBEEF ^ n);
  return random_connected_gnm(n, 2 * n, rng);
}

void BM_BfsSingleSource(benchmark::State& state) {
  const Graph g = test_graph(static_cast<Vertex>(state.range(0)));
  BfsWorkspace ws;
  Vertex src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs(g, src, ws));
    src = (src + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_BfsSingleSource)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Apsp(benchmark::State& state) {
  const Graph g = test_graph(static_cast<Vertex>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistanceMatrix(g));
  }
}
BENCHMARK(BM_Apsp)->Arg(64)->Arg(256)->Arg(1024);

void BM_Diameter(benchmark::State& state) {
  const Graph g = test_graph(static_cast<Vertex>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(diameter(g));
  }
}
BENCHMARK(BM_Diameter)->Arg(64)->Arg(256)->Arg(1024);

void BM_SwapGainEvaluation(benchmark::State& state) {
  // Cost of one tentative swap: scoped apply + BFS + revert.
  Graph g = test_graph(static_cast<Vertex>(state.range(0)));
  BfsWorkspace ws;
  const Vertex v = 0;
  const Vertex w = g.neighbors(v)[0];
  Vertex w2 = 0;
  for (auto _ : state) {
    do {
      w2 = (w2 + 1) % g.num_vertices();
    } while (w2 == v || w2 == w || g.has_edge(v, w2));
    const ScopedSwap swap(g, {v, w, w2});
    benchmark::DoNotOptimize(vertex_cost(g, v, UsageCost::Sum, ws));
  }
}
BENCHMARK(BM_SwapGainEvaluation)->Arg(64)->Arg(256)->Arg(1024);

void BM_CertifySumEquilibrium(benchmark::State& state) {
  const Graph g = star(static_cast<Vertex>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(certify_sum_equilibrium(g));
  }
}
BENCHMARK(BM_CertifySumEquilibrium)->Arg(16)->Arg(32)->Arg(64);

void BM_CertifyMaxEquilibriumTorus(benchmark::State& state) {
  const DiagonalTorus torus = rotated_torus(static_cast<Vertex>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(certify_max_equilibrium(torus.graph()));
  }
}
BENCHMARK(BM_CertifyMaxEquilibriumTorus)->Arg(3)->Arg(4)->Arg(5);

void BM_DynamicsToEquilibrium(benchmark::State& state) {
  const Vertex n = static_cast<Vertex>(state.range(0));
  Xoshiro256ss rng(0xD15C0);
  for (auto _ : state) {
    state.PauseTiming();
    const Graph start = random_connected_gnm(n, 2 * n, rng);
    state.ResumeTiming();
    DynamicsConfig config;
    config.max_moves = 1'000'000;
    benchmark::DoNotOptimize(run_dynamics(start, config));
  }
}
BENCHMARK(BM_DynamicsToEquilibrium)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_BatchApsp(benchmark::State& state) {
  // The engine's inner primitive: all distance rows of an edge-masked CSR
  // snapshot via 64-source bit-parallel sweeps.
  const Graph g = test_graph(static_cast<Vertex>(state.range(0)));
  const CsrGraph csr(g);
  const Vertex n = csr.num_vertices();
  BatchBfsWorkspace ws;
  std::vector<std::uint16_t> rows(static_cast<std::size_t>(n) * n);
  const Vertex v = 0;
  const Vertex w = csr.neighbors(v)[0];
  for (auto _ : state) {
    csr_apsp(csr, MaskedEdge{v, w}, rows.data(), ws);
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(state.iterations() * n);  // BFS-equivalents
}
BENCHMARK(BM_BatchApsp)->Arg(64)->Arg(256)->Arg(1024);

// Engine-vs-naive certification on the same random G(n, 2n) instances. The
// counters report tentative swaps evaluated per second — the system's
// headline throughput metric (see BENCH_engine.json / run_bench.sh).

void BM_CertifySumEngine(benchmark::State& state) {
  const Graph g = test_graph(static_cast<Vertex>(state.range(0)));
  std::uint64_t moves = 0;
  for (auto _ : state) {
    const auto cert = certify_sharded(g, UsageCost::Sum, /*include_deletions=*/false).certificate;
    moves = cert.moves_checked;
    benchmark::DoNotOptimize(cert);
  }
  state.SetItemsProcessed(state.iterations() * moves);
  state.counters["swaps_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * moves),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CertifySumEngine)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_CertifySumNaive(benchmark::State& state) {
  const Graph g = test_graph(static_cast<Vertex>(state.range(0)));
  std::uint64_t moves = 0;
  for (auto _ : state) {
    const auto cert = naive::certify_sum_equilibrium(g);
    moves = cert.moves_checked;
    benchmark::DoNotOptimize(cert);
  }
  state.SetItemsProcessed(state.iterations() * moves);
  state.counters["swaps_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * moves),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CertifySumNaive)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_CertifyMaxEngine(benchmark::State& state) {
  const Graph g = test_graph(static_cast<Vertex>(state.range(0)));
  std::uint64_t moves = 0;
  for (auto _ : state) {
    const auto cert = certify_sharded(g, UsageCost::Max, /*include_deletions=*/true).certificate;
    moves = cert.moves_checked;
    benchmark::DoNotOptimize(cert);
  }
  state.SetItemsProcessed(state.iterations() * moves);
  state.counters["swaps_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * moves),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CertifyMaxEngine)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_CertifyMaxNaive(benchmark::State& state) {
  const Graph g = test_graph(static_cast<Vertex>(state.range(0)));
  std::uint64_t moves = 0;
  for (auto _ : state) {
    const auto cert = naive::certify_max_equilibrium(g);
    moves = cert.moves_checked;
    benchmark::DoNotOptimize(cert);
  }
  state.SetItemsProcessed(state.iterations() * moves);
  state.counters["swaps_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations() * moves),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CertifyMaxNaive)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_InsertionStability(benchmark::State& state) {
  const DiagonalTorus torus = rotated_torus(static_cast<Vertex>(state.range(0)));
  const DistanceMatrix dm(torus.graph());
  for (auto _ : state) {
    benchmark::DoNotOptimize(insertion_stability_at(dm, 0, 1));
  }
}
BENCHMARK(BM_InsertionStability)->Arg(4)->Arg(8)->Arg(12);

}  // namespace
