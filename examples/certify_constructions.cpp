// Certify the paper's two headline constructions end to end:
//  * Figure 3 — the diameter-3 sum equilibrium (Theorem 5),
//  * Figure 4 — the Θ(sqrt(n))-diameter rotated-torus max equilibrium
//    (Theorem 12), including its deletion-critical / insertion-stable pair
//    and its identity as an Abelian Cayley graph (§5).
//
//   $ ./certify_constructions [k]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/certify_wire.hpp"
#include "core/equilibrium.hpp"
#include "core/instance.hpp"
#include "core/swap_engine.hpp"
#include "gen/cayley.hpp"
#include "gen/paper.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace bncg;
  const Vertex k = argc > 1 ? static_cast<Vertex>(std::atoi(argv[1])) : 5;

  std::cout << "=== Figure 3 (literal) vs. Theorem 5 ===\n";
  {
    const Graph g = fig3_diameter3_graph();
    Timer timer;
    const EquilibriumCertificate cert = certify_sum_equilibrium(g);
    std::cout << "literal fig3: n=" << g.num_vertices() << " m=" << g.num_edges()
              << " diameter=" << diameter(g) << " girth=" << girth(g) << "\n"
              << "sum equilibrium: " << (cert.is_equilibrium ? "CERTIFIED" : "REFUTED") << " ("
              << cert.moves_checked << " swaps, " << timer.millis() << " ms)\n";
    if (cert.witness) {
      std::cout << "counterexample: agent " << cert.witness->swap.v << " swaps "
                << cert.witness->swap.remove_w << " -> " << cert.witness->swap.add_w
                << " (the d-agent/matched-partner erratum; see DESIGN.md)\n";
    }
    // Theorem 5's existential statement, upheld by the repaired witness.
    const Graph w = diameter3_sum_equilibrium_n8();
    const EquilibriumCertificate wc = certify_sum_equilibrium(w);
    std::cout << "repaired witness: n=" << w.num_vertices() << " m=" << w.num_edges()
              << " diameter=" << diameter(w) << " sum equilibrium: "
              << (wc.is_equilibrium ? "CERTIFIED" : "REFUTED") << "\n";
  }

  std::cout << "\n=== Figure 4: rotated torus, k=" << k << " (Theorem 12) ===\n";
  {
    const DiagonalTorus torus = rotated_torus(k);
    const Graph& g = torus.graph();
    std::cout << "n=" << g.num_vertices() << " (= 2k^2), 4-regular, diameter=" << diameter(g)
              << " (paper: exactly k=" << k << ")\n";
    Timer timer;
    const bool del_crit = is_deletion_critical(g);
    const bool ins_stable = is_insertion_stable(g);
    const bool max_eq = is_max_equilibrium(g);
    std::cout << "deletion-critical:  " << (del_crit ? "yes" : "NO") << "\n"
              << "insertion-stable:   " << (ins_stable ? "yes" : "NO") << "\n"
              << "max equilibrium:    " << (max_eq ? "CERTIFIED" : "REFUTED") << " ("
              << timer.millis() << " ms total)\n";

    // The same verdict through the Instance facade over the large-n
    // sharded driver, with its width/shard telemetry.
    const Instance inst{Graph(g)};
    RunConfig run;
    run.model = UsageCost::Max;
    run.include_deletions = true;
    Timer sharded_timer;
    const ShardedCertificate sharded = inst.certify(run);
    std::cout << "sharded certify:    "
              << (sharded.certificate.is_equilibrium ? "CERTIFIED" : "REFUTED") << " ("
              << sharded.shards_used << " shards, " << dist_width_name(sharded.width)
              << " distances, " << sharded.width_fallbacks << " width fallbacks, "
              << sharded_timer.millis() << " ms)\n";
    if (sharded.certificate.is_equilibrium != max_eq) {
      std::cerr << "FATAL: sharded certifier disagrees with is_max_equilibrium\n";
      return 1;
    }

    // Once more under a memory budget of half the dense n×n slab: the
    // scans run against the blocked row cache instead, and the certificate
    // must not change by a byte (DESIGN.md §16). Skipped for tiny k, where
    // half a slab is below the cache's two-block minimum.
    if (g.num_vertices() >= 32) {
      RunConfig budgeted = run;
      budgeted.resources.mem_budget =
          static_cast<std::uint64_t>(g.num_vertices()) * g.num_vertices() / 2;
      Timer budget_timer;
      const ShardedCertificate capped = inst.certify(budgeted);
      std::cout << "budgeted certify:   "
                << (capped.certificate.is_equilibrium ? "CERTIFIED" : "REFUTED") << " ("
                << capped.certificate.moves_checked << " moves under a half-slab budget, "
                << budget_timer.millis() << " ms)\n";
      if (capped.certificate.is_equilibrium != sharded.certificate.is_equilibrium ||
          capped.certificate.moves_checked != sharded.certificate.moves_checked) {
        std::cerr << "FATAL: budgeted certificate disagrees with the dense path\n";
        return 1;
      }
    }

    // The same verdict once more through the cross-process pipeline
    // (DESIGN.md §11), simulated in-process: three "worker" shards, each
    // with its own engine, round-tripped through the wire format (binary
    // and JSON alternating) and merged by the fingerprint-guarded fold —
    // exactly what tools/bncg_certify + scripts/certify_fanout.sh do
    // across real processes.
    {
      const Vertex n = g.num_vertices();
      std::vector<ShardResult> shards;
      for (std::uint32_t i = 0; i < 3; ++i) {
        const SwapEngine worker_engine(g);  // fresh engine = fresh address space
        AgentRange range;
        range.lo = static_cast<Vertex>(i * n / 3);
        range.hi = static_cast<Vertex>((i + 1) * n / 3);
        range.shard_index = i;
        range.shard_count = 3;
        const ShardResult produced = certify_agent_range(
            worker_engine, range, UsageCost::Max, /*include_deletions=*/true);
        shards.push_back(i % 2 == 0 ? shard_from_binary(shard_to_binary(produced))
                                    : shard_from_json(shard_to_json(produced)));
      }
      const ShardedCertificate merged = merge_shard_results(shards);
      std::cout << "wire fan-out:       "
                << (merged.certificate.is_equilibrium ? "CERTIFIED" : "REFUTED")
                << " (3 worker shards, serialized + merged, fingerprint 0x" << std::hex
                << graph_fingerprint(g) << std::dec << ")\n";
      if (merged.certificate.is_equilibrium != sharded.certificate.is_equilibrium ||
          merged.certificate.moves_checked != sharded.certificate.moves_checked) {
        std::cerr << "FATAL: wire-merged certificate disagrees with certify_sharded\n";
        return 1;
      }
    }

    // §5: the same graph as a Cayley graph of an Abelian group.
    const Graph cayley_form = even_sum_subgroup_cayley(k);
    std::cout << "Cayley identity:    "
              << (cayley_form == g ? "edge-identical to Cay(even-sum Z_{2k}^2, {(+-1,+-1)})"
                                   : "MISMATCH")
              << "\n";
  }
  return 0;
}
