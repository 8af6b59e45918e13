// bncg::Instance — the one-object public API (DESIGN.md §16).
//
// Everything an application wants from this library is a question about one
// graph: is it an equilibrium, what does best-response dynamics do to it,
// what are its observables. Before this facade every caller hand-wired the
// answer out of engine/state/width/thread parts (build a SwapEngine, pick a
// WidthPolicy, choose certify_sharded vs certify_*_equilibrium, thread a
// seed through DynamicsConfig); the parts still exist — the facade owns the
// wiring so examples/ and tools/ do not.
//
//   Instance inst = Instance::gnm(1000, 2000, /*seed=*/42);
//   RunConfig run;
//   run.model = UsageCost::Max;
//   run.include_deletions = true;
//   run.resources.mem_budget = parse_mem_bytes("64M");
//   ShardedCertificate cert = inst.certify(run);
//
// One RunConfig drives both entry points: `certify` answers the
// equilibrium question exhaustively through certify_sharded, the one
// in-process certification driver (work-sized shards on the thread pool,
// a tiny instance inline on the caller; dense or budgeted row storage per
// ResourceConfig), and `equilibrate` runs best-response dynamics under the
// same model/resources until equilibrium or budget. RunConfig carries no
// shard count: the driver sizes shards by work. The free functions
// underneath (certify_sharded, run_dynamics, certify_sum_equilibrium, …)
// stay public for callers that need one step of this; new code should
// start here.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/certify_sharded.hpp"
#include "core/dist_provider.hpp"
#include "core/dynamics.hpp"
#include "core/usage_cost.hpp"
#include "graph/graph.hpp"

namespace bncg {

/// One run's worth of decisions, shared by certification and dynamics.
/// Defaults reproduce the library-wide defaults: sum model, swap-only,
/// auto width, no memory budget (dense storage whenever it fits).
struct RunConfig {
  UsageCost model = UsageCost::Sum;
  /// Max model only: also consider cost-neutral single-edge deletions
  /// (the paper's deletion clause). Ignored in the sum model, where every
  /// deletion is strictly harmful.
  bool include_deletions = false;
  /// Certification verdict-only fast path: abort all shards at the first
  /// violation. Witness/moves_checked become schedule-dependent;
  /// is_equilibrium stays deterministic.
  bool stop_on_violation = false;
  /// Dynamics move cap (cycling guard).
  std::uint64_t max_moves = 100'000;
  /// Dynamics scheduler seed (RandomOrder shuffles).
  std::uint64_t seed = 0x5eed;
  /// Distance-storage width and per-lane memory budget
  /// (core/dist_provider.hpp). mem_budget = 0 means unlimited.
  ResourceConfig resources;
};

/// An owned problem instance: one connected-or-not graph plus the cached
/// identity (fingerprint) the wire formats key on. Cheap to query,
/// immutable — runs return results instead of mutating the instance.
class Instance {
 public:
  /// Wraps an existing graph (moved in).
  explicit Instance(Graph g);

  /// Reads an edge-list file (graph/io.hpp format). Throws
  /// std::runtime_error when the file is unreadable or malformed.
  [[nodiscard]] static Instance load_edge_list(const std::string& path);

  /// Reads an edge list from a stream.
  [[nodiscard]] static Instance read_edge_list(std::istream& in);

  /// Seeded random connected G(n, m).
  [[nodiscard]] static Instance gnm(Vertex n, std::size_t m, std::uint64_t seed);

  /// The paper's Figure 4 rotated torus: n = 2k², degree 4, a max-model
  /// swap equilibrium — the standard large structured instance.
  [[nodiscard]] static Instance torus(Vertex k);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] Vertex num_vertices() const noexcept { return graph_.num_vertices(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return graph_.num_edges(); }

  /// Canonical instance fingerprint (graph/io.hpp), computed once.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Exhaustive equilibrium certification under `run` — certify_sharded
  /// with auto (work-sized) shards and the run's resources (dense below the
  /// budget, blocked row cache above it; identical certificate bytes either
  /// way).
  [[nodiscard]] ShardedCertificate certify(const RunConfig& run = {}) const;

  /// Best-response swap dynamics from this instance under `run`'s model,
  /// deletion clause, move cap, seed, and resources. Fine-grained control
  /// (scheduler, move policy, tracing) stays on run_dynamics —
  /// equilibrate(run, config) seeds those extras from `config` and
  /// overrides only what RunConfig owns.
  [[nodiscard]] DynamicsResult equilibrate(const RunConfig& run = {}) const;
  [[nodiscard]] DynamicsResult equilibrate(const RunConfig& run, DynamicsConfig config) const;

  /// Σ_v usage cost under `model` (kInfCost when disconnected).
  [[nodiscard]] std::uint64_t social_cost(UsageCost model) const;

  /// Graph diameter (kInfDist when disconnected).
  [[nodiscard]] Vertex diameter() const;

 private:
  Graph graph_;
  mutable std::uint64_t fingerprint_ = 0;
  mutable bool fingerprint_cached_ = false;
};

}  // namespace bncg
