#include "core/certify_sharded.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <vector>

#include "core/swap_engine.hpp"
#include "graph/io.hpp"
#include "util/thread_pool.hpp"

namespace bncg {

namespace {

/// Agent-scan work one shard must carry to repay its pool handoff, in the
/// units of the auto rule, n·(n + 2m). Measured on G(n, 2n) (work 5n²) on
/// a 4-vCPU AVX-512 host, medians of 15–21 runs: 4 lanes at 16 shards lost
/// to 1 lane at n = 16 (sum 37–48 vs 23–37 µs, max 37–53 vs 16–23), split
/// at n = 20 (sum 47–50 vs 63–64, max 44 vs 33), and won from n = 24 (sum
/// 56–79 vs 77–126, max 47–61 vs 62–121); two shards on 4 lanes still lost
/// to one inline shard on max at n = 24 (74–76 vs 66–68 µs) and won from
/// n = 28. W = 3072 keeps n ≤ 24 on one inline shard and gives n = 28 and
/// 32 two shards. G(1024, 2048) and the k = 20 torus (work 5.2 M and 3.2 M)
/// keep 16 shards on 4 lanes; the n ≤ 6 exhaustive sweep (work ≤ 216) runs
/// inline.
constexpr std::uint64_t kShardWork = 3072;

/// Scans agents [r.agent_lo, r.agent_hi) into the payload fields of `r`.
/// The shared scan body of the in-process task shards and the public
/// cross-process entry point, so both fold the exact same per-agent
/// results.
void scan_range(const SwapEngine& engine, UsageCost model, bool include_deletions,
                bool stop_on_violation, SwapEngine::Scratch& scratch, std::atomic<bool>* abort,
                ShardResult& r) {
  for (Vertex v = r.agent_lo; v < r.agent_hi; ++v) {
    if (stop_on_violation && abort != nullptr && abort->load(std::memory_order_relaxed)) return;
    const std::optional<Deviation> dev =
        stop_on_violation ? engine.first_deviation(v, model, scratch, include_deletions, &r.moves)
                          : engine.best_deviation(v, model, scratch, include_deletions, &r.moves);
    ++r.scanned;
    if (dev && (!r.best || dev->cost_after < r.best->cost_after)) r.best = dev;
    if (dev && stop_on_violation) {
      if (abort != nullptr) abort->store(true, std::memory_order_relaxed);
      return;
    }
  }
}

/// Fills the identity and coordinate blocks — the ONE place they are
/// stamped, and every field comes from the engine's own snapshot, so
/// worker-produced and in-process shards can never drift and a fingerprint
/// can never describe a different instance than the payload. `fingerprint`
/// is precomputed by the caller (the in-process driver hoists the O(m)
/// hash out of its per-shard loop) and must equal
/// graph_fingerprint(engine.snapshot()).
[[nodiscard]] ShardResult stamped_shard(std::uint64_t fingerprint, const SwapEngine& engine,
                                        const AgentRange& range, UsageCost model,
                                        bool include_deletions, bool stop_on_violation) {
  const Vertex n = engine.snapshot().num_vertices();
  BNCG_REQUIRE(range.lo <= range.hi && range.hi <= n, "certify_agent_range: bad agent range");
  BNCG_REQUIRE(range.shard_index < range.shard_count, "certify_agent_range: bad shard index");
  ShardResult r;
  r.fingerprint = fingerprint;
  r.n = n;
  r.m = engine.snapshot().num_edges();
  r.model = model;
  r.include_deletions = include_deletions;
  r.stop_on_violation = stop_on_violation;
  r.shard_index = range.shard_index;
  r.shard_count = range.shard_count;
  r.agent_lo = range.lo;
  r.agent_hi = range.hi;
  r.width = engine.preferred_width();
  return r;
}

}  // namespace

std::size_t work_chunks(std::uint64_t work, std::size_t lanes) {
  return static_cast<std::size_t>(std::clamp<std::uint64_t>((work + kShardWork - 1) / kShardWork,
                                                             1, 4 * std::uint64_t{lanes}));
}

ShardResult certify_agent_range(const SwapEngine& engine, const AgentRange& range,
                                UsageCost model, bool include_deletions, bool stop_on_violation,
                                SwapEngine::Scratch* scratch) {
  ShardResult r = stamped_shard(graph_fingerprint(engine.snapshot()), engine, range, model,
                                include_deletions, stop_on_violation);

  SwapEngine::Scratch local;
  const std::uint64_t fallbacks_before = engine.width_fallbacks();
  scan_range(engine, model, include_deletions, stop_on_violation,
             scratch != nullptr ? *scratch : local, /*abort=*/nullptr, r);
  // Exact when this caller is the engine's only user (the worker process);
  // merely indicative under concurrent in-process shards, whose driver
  // re-stamps the engine total after the merge anyway.
  r.width_fallbacks = engine.width_fallbacks() - fallbacks_before;
  return r;
}

void ShardFold::add(const ShardResult& r) {
  if (folded_ == 0) {
    head_ = r;
    head_.best.reset();  // identity block only; the payload lives in the fold
    BNCG_REQUIRE(r.shard_count >= 1, "merge: zero shard count");
  } else {
    BNCG_REQUIRE(r.fingerprint == head_.fingerprint && r.n == head_.n && r.m == head_.m,
                 "merge: shard results come from different instances");
    BNCG_REQUIRE(r.model == head_.model && r.include_deletions == head_.include_deletions &&
                     r.stop_on_violation == head_.stop_on_violation,
                 "merge: shard results come from different run configurations");
    BNCG_REQUIRE(r.shard_count == head_.shard_count,
                 "merge: shard_count disagrees with shard set");
  }
  BNCG_REQUIRE(r.shard_index == folded_, "merge: duplicate or missing shard index");
  BNCG_REQUIRE(r.agent_lo == expect_lo_ && r.agent_lo <= r.agent_hi && r.agent_hi <= r.n,
               "merge: shard ranges do not tile the agent set");
  BNCG_REQUIRE(r.scanned <= r.agent_hi - r.agent_lo, "merge: scanned exceeds the shard range");
  BNCG_REQUIRE(r.stop_on_violation || r.scanned == r.agent_hi - r.agent_lo,
               "merge: incomplete shard in full (non-stop_on_violation) mode");
  BNCG_REQUIRE(!r.best || (r.best->swap.v >= r.agent_lo && r.best->swap.v < r.agent_hi),
               "merge: witness agent outside the shard range");
  expect_lo_ = r.agent_hi;

  // Serial fold in shard (= agent) order with a strict '<': the earliest
  // agent wins among equal cost_after, matching the naive certifiers bit
  // for bit.
  if (folded_ == 0) out_.width = DistWidth::U8;
  out_.certificate.moves_checked += r.moves;
  out_.agents_scanned += r.scanned;
  out_.width_fallbacks += r.width_fallbacks;
  if (r.width == DistWidth::U16) out_.width = DistWidth::U16;
  if (r.best && (!best_ || r.best->cost_after < best_->cost_after)) best_ = r.best;
  ++folded_;
}

ShardedCertificate ShardFold::finish() const {
  BNCG_REQUIRE(folded_ >= 1, "merge: no shard results");
  BNCG_REQUIRE(folded_ == head_.shard_count, "merge: shard_count disagrees with shard set");
  BNCG_REQUIRE(expect_lo_ == head_.n, "merge: shard ranges do not cover every agent");
  ShardedCertificate out = out_;
  out.shards_used = folded_;
  out.certificate.witness = best_;
  out.certificate.is_equilibrium = !best_.has_value();
  // No shard stops early without a reason: a shard aborts only on its own
  // violation or (in-process) a sibling's, so a clean verdict must rest on
  // every agent having actually been scanned — a partial, witness-free
  // shard set cannot certify an equilibrium even under stop_on_violation.
  BNCG_REQUIRE(best_.has_value() || out.agents_scanned == head_.n,
               "merge: no violation found but not every agent was scanned");
  return out;
}

ShardedCertificate merge_shard_results(const std::vector<ShardResult>& shards) {
  BNCG_REQUIRE(!shards.empty(), "merge: no shard results");

  // Re-establish merge order (workers may hand shards back in any order),
  // then stream through the one true fold.
  std::vector<const ShardResult*> ordered(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) ordered[i] = &shards[i];
  std::sort(ordered.begin(), ordered.end(), [](const ShardResult* a, const ShardResult* b) {
    return a->shard_index < b->shard_index;
  });
  BNCG_REQUIRE(ordered.front()->shard_count == shards.size(),
               "merge: shard_count disagrees with shard set");
  ShardFold fold;
  for (const ShardResult* r : ordered) fold.add(*r);
  return fold.finish();
}

ShardedCertificate certify_sharded(const Graph& g, UsageCost model, bool include_deletions,
                                   const ShardedCertifyConfig& config) {
  const Vertex n = g.num_vertices();
  ShardedCertificate out;
  if (n == 0) {
    out.certificate.is_equilibrium = true;
    return out;
  }
  SwapEngine engine(g, config.resources);

  ThreadPool& pool = ThreadPool::global();
  const std::size_t threads = pool.size();
  const std::uint64_t work = std::uint64_t{n} * (n + 2 * std::uint64_t{g.num_edges()});
  const std::size_t shards =
      std::min<std::size_t>(n, config.shards != 0 ? config.shards : work_chunks(work, threads));

  // Identity stamped once up front through the same helper the worker
  // entry point uses (one O(m) fingerprint pass, not one per shard); the
  // parallel region only fills payloads.
  const std::uint64_t fingerprint = graph_fingerprint(engine.snapshot());
  std::vector<ShardResult> results(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    AgentRange range;
    range.lo = static_cast<Vertex>(shard * n / shards);
    range.hi = static_cast<Vertex>((shard + 1) * n / shards);
    range.shard_index = static_cast<std::uint32_t>(shard);
    range.shard_count = static_cast<std::uint32_t>(shards);
    results[shard] = stamped_shard(fingerprint, engine, range, model, include_deletions,
                                   config.stop_on_violation);
  }

  std::atomic<bool> abort{false};
  // One scratch per pool lane, not per shard: a claimed shard runs on one
  // lane start to finish, so indexing by the executing lane is race-free.
  // Each lane builds its scratch on its first shard, so a one-shard run
  // builds one, not one per lane. The lanes share the engine's unmasked
  // slab, built here on the pool rather than inline by the first lane that
  // needs it.
  std::vector<std::optional<SwapEngine::Scratch>> scratch(threads);
  engine.build_shared_rows();

  pool.parallel_for(shards, /*grain=*/1, [&](std::uint64_t shard, unsigned tid) {
    if (!scratch[tid]) scratch[tid].emplace();
    scan_range(engine, model, include_deletions, config.stop_on_violation, *scratch[tid], &abort,
               results[static_cast<std::size_t>(shard)]);
  });

  out = merge_shard_results(results);
  // The engine counter is the exact fallback total; per-shard attribution
  // is racy across concurrently scanning tasks.
  out.width = engine.preferred_width();
  out.width_fallbacks = engine.width_fallbacks();
  return out;
}

}  // namespace bncg
