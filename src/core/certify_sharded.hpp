// Sharded certification — the one in-process driver of swap certification.
//
// certify_sharded answers the paper's question for a whole graph (is G a
// swap equilibrium under sum or max, and if not, which swap witnesses it)
// by running the engine's per-agent scans (core/swap_engine.hpp) over
// contiguous agent shards on the thread pool (util/thread_pool.hpp). The
// engine owns no agent loop; the public certifiers
// (certify_sum_equilibrium, certify_max_equilibrium) and bncg::Instance all
// come here.
//
//  * Shards are sized by work. The auto count is
//    min(n, 4·lanes, ⌈n·(n + 2m) / W⌉), where n·(n + 2m) counts one sweep
//    over the snapshot per agent and W is one measured constant
//    (certify_sharded.cpp). An instance too small to repay a pool handoff
//    gets one shard, which the pool runs inline on the calling thread, so
//    more lanes never slow it down; large instances get four shards per
//    lane, whose lanes claim them one at a time, so a straggling shard
//    overlaps the rest instead of gating a barrier.
//  * Each shard folds its own best witness locally; the final merge walks
//    shards in index order — which IS agent order — picking the strictly
//    better cost_after, so the certificate (witness, tie-breaks,
//    moves_checked) is bit-identical to the serial bncg::naive fold under
//    any shard count, thread count and task schedule.
//  * `stop_on_violation` flips the scan to first-deviation with a shared
//    abort flag checked between agents: the moment any shard finds a
//    violation the remaining shards drain. The *verdict* stays
//    deterministic (a violation exists or it does not); the reported
//    witness and move count then depend on timing and are documented as
//    such — that mode is for "is this an equilibrium at all" screens where
//    the answer is usually "no" within a few shards.
//
// Width adaptivity rides along: the engine starts its scans at u8 whenever
// the instance's diameter bound fits (graph/dist_width.hpp), and a memory
// budget (ShardedCertifyConfig::resources) moves them onto the blocked row
// cache; neither changes a certificate byte.
//
// Cross-process fan-out rides on the same shape: certify_agent_range runs
// one shard's scan against any SwapEngine (in this process or a worker on
// another machine), merge_shard_results folds ShardResults back into the
// full certificate with the identical shard-index-order / strict-'<' rule,
// and every ShardResult carries the instance fingerprint + run parameters
// so results from different graphs or mismatched runs refuse to merge.
// core/certify_wire.hpp serializes ShardResult; tools/bncg_certify.cpp and
// scripts/certify_fanout.sh drive the multi-process pipeline (DESIGN.md
// §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/swap_engine.hpp"
#include "core/usage_cost.hpp"
#include "graph/dist_width.hpp"
#include "graph/graph.hpp"

namespace bncg {

/// Tuning knobs of a sharded certification run. Every setting gives the
/// same certificate; they change speed and memory only.
struct ShardedCertifyConfig {
  /// Number of contiguous agent shards, capped at n; 0 = auto, sized by
  /// work (see the header comment): one inline shard for tiny instances,
  /// four per pool lane for large ones.
  std::size_t shards = 0;
  /// Verdict-only fast path: scan first-deviation per agent and abort every
  /// shard once any violation is found. Witness/moves become
  /// schedule-dependent; is_equilibrium stays deterministic.
  bool stop_on_violation = false;
  /// Width + memory budget of the underlying engine
  /// (core/dist_provider.hpp). A budget below the dense n×n slab switches
  /// the per-agent scans to the blocked row cache — same certificate bytes,
  /// bounded memory; how certification reaches n = 2¹⁷ and beyond.
  ResourceConfig resources;
};

/// Outcome of certify_sharded: the standard certificate plus the sharding
/// and width telemetry the benches record.
struct ShardedCertificate {
  EquilibriumCertificate certificate;
  std::size_t shards_used = 0;
  Vertex agents_scanned = 0;          ///< < n only when stop_on_violation aborted
  DistWidth width = DistWidth::U16;   ///< width the engine's scans preferred
  std::uint64_t width_fallbacks = 0;  ///< agents redone at u16 after u8 saturation
};

/// One shard's contiguous agent block within a sharded run. Indices are
/// merge-order coordinates: merge_shard_results folds shards by ascending
/// shard_index and requires the ranges to tile [0, n) exactly.
struct AgentRange {
  Vertex lo = 0;                  ///< first agent of the shard (inclusive)
  Vertex hi = 0;                  ///< one past the last agent (exclusive)
  std::uint32_t shard_index = 0;  ///< position of this shard in merge order
  std::uint32_t shard_count = 1;  ///< total shards of the run
};

/// The unit of work a certification shard produces — self-describing, so a
/// result can cross an address-space (or machine) boundary and still be
/// merged safely. The identity block pins the instance and run parameters
/// (merge_shard_results refuses any mismatch); the payload block is exactly
/// what the in-process task shards fold. Serialized by
/// core/certify_wire.hpp.
struct ShardResult {
  // --- identity: the merge guard ---
  std::uint64_t fingerprint = 0;  ///< graph_fingerprint(g) of the instance
  Vertex n = 0;                   ///< vertex count of the instance
  std::uint64_t m = 0;            ///< edge count of the instance
  UsageCost model = UsageCost::Sum;
  bool include_deletions = false;
  bool stop_on_violation = false;
  // --- shard coordinates ---
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  Vertex agent_lo = 0;
  Vertex agent_hi = 0;
  // --- payload ---
  std::optional<Deviation> best;  ///< best deviation within [agent_lo, agent_hi)
  std::uint64_t moves = 0;        ///< candidate moves evaluated by this shard
  Vertex scanned = 0;             ///< agents scanned (< range size only on abort)
  // --- telemetry ---
  DistWidth width = DistWidth::U16;   ///< width the shard's engine preferred
  std::uint64_t width_fallbacks = 0;  ///< u8 → u16 agent redos within the shard
};

/// Certifies agents [range.lo, range.hi) of the instance `engine`
/// snapshots and packages the outcome as a mergeable ShardResult. The
/// identity block — fingerprint included — is stamped from the engine's
/// own snapshot, so a shard can never carry one instance's fingerprint
/// over another instance's payload. This is the worker-side entry point of
/// the cross-process pipeline, and it scans with the in-process driver's
/// shard body: agents in ascending order under the engine's scan rules, so
/// merging the results of ANY partition of [0, n) reproduces
/// certify_sharded bit for bit. Under stop_on_violation the range stops at
/// its own first violation. `scratch` may be shared across sequential
/// calls; pass null to use a call-local one.
[[nodiscard]] ShardResult certify_agent_range(const SwapEngine& engine, const AgentRange& range,
                                              UsageCost model, bool include_deletions = false,
                                              bool stop_on_violation = false,
                                              SwapEngine::Scratch* scratch = nullptr);

/// Incremental twin of merge_shard_results — THE single fold
/// implementation (merge_shard_results routes through it). Shards must
/// arrive in ascending shard-index order, one at a time; each add()
/// validates the guard fields against the first shard (equal
/// fingerprint/n/m/model/flags, index == number folded so far, ranges
/// tiling [0, n) in order, full ranges scanned unless stop_on_violation)
/// and throws std::invalid_argument on any violation. Because the fold is
/// a strict-'<' running minimum over one Deviation plus three counters,
/// a caller can stream shards from disk one file at a time and never hold
/// more than one ShardResult in memory — the streaming witness sink of
/// the certification service (svc/sink.hpp) is exactly that loop.
class ShardFold {
 public:
  /// Folds the next shard (index must equal folded()).
  void add(const ShardResult& shard);
  /// Number of shards folded so far.
  [[nodiscard]] std::size_t folded() const noexcept { return folded_; }
  /// Validates full coverage (folded() == shard_count, ranges reached n)
  /// and returns the merged certificate. Throws std::invalid_argument on
  /// an empty or incomplete fold.
  [[nodiscard]] ShardedCertificate finish() const;

 private:
  std::size_t folded_ = 0;
  ShardResult head_;  // identity block of the first shard (payload unused)
  Vertex expect_lo_ = 0;
  ShardedCertificate out_;
  std::optional<Deviation> best_;
};

/// Folds shard results into the full certificate. Validates the guard
/// fields (equal fingerprint/n/m/model/flags on every shard, shard indices
/// forming 0..k−1 with shard_count == k, ranges tiling [0, n) in index
/// order, full ranges scanned unless stop_on_violation) and throws
/// std::invalid_argument on any violation — mismatched instances refuse to
/// merge. The fold walks shards in shard-index order — which IS agent
/// order — taking the strictly better cost_after, so the merged witness,
/// tie-breaks, and moves_checked are bit-identical to certify_sharded
/// regardless of where or in what order the shards were produced.
[[nodiscard]] ShardedCertificate merge_shard_results(const std::vector<ShardResult>& shards);

/// Pool chunks for agent scans of `work` units (traversals × their cost
/// n + 2m): one per 3072 units, 1 to 4 per lane; one chunk runs inline.
/// Sizes certify_sharded's auto shard count and the naive certifiers' grain.
[[nodiscard]] std::size_t work_chunks(std::uint64_t work, std::size_t lanes);

/// Certifies `g` under `model` by sharding the per-agent scan (see header
/// comment). Without stop_on_violation the certificate — witness,
/// tie-breaks, moves_checked — is bit-identical to the bncg::naive
/// certifiers (differential-tested in tests/test_certify_sharded.cpp and
/// tests/test_exhaustive_sweep.cpp). `include_deletions` selects the max
/// model's deletion clause. Correct at any size; with a memory budget
/// (config.resources) the scans run against the blocked row cache, which
/// is what admits n ≥ 65535 instances the dense O(n²) storage provably
/// cannot fit.
[[nodiscard]] ShardedCertificate certify_sharded(const Graph& g, UsageCost model,
                                                 bool include_deletions = false,
                                                 const ShardedCertifyConfig& config = {});

}  // namespace bncg
