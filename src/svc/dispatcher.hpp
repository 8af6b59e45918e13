// Fault-tolerant, session-multiplexed certification dispatcher
// (DESIGN.md §12, §15).
//
// serve_jobs turns certification runs into a long-lived socket service:
// agent ranges become *leases with deadlines* handed to connected workers,
// results stream back as checksummed certify_wire frames, and the
// deterministic ShardFold stays the single source of truth for every
// verdict. One poll loop owns a queue of *sessions* (jobs): workers are
// routed to sessions by the instance fingerprint they handshake with,
// leases carry their session's run configuration, and a deficit-style fair
// scheduler (least-granted session first, ties to the lowest session id)
// keeps one giant job from starving its siblings. The robustness contract,
// per session:
//
//  * a worker that disconnects, times out past its lease, or returns a
//    corrupt frame costs the *range* one attempt — the range is
//    re-dispatched to other workers after exponential backoff (saturating:
//    redispatch_delay_ms), and the first valid result wins;
//  * a range whose attempts exceed the retry budget is quarantined; when
//    every unfinished range of a session is quarantined and no lease is
//    outstanding, THAT session degrades to a partial-coverage refusal —
//    the certificate is withheld, never wrong, and sibling sessions are
//    untouched;
//  * every completed range is appended crash-safely to the session's
//    streaming witness sink (svc/sink.hpp) the moment it arrives — with a
//    journal root the sinks double as per-session journals under
//    session-keyed directories, and --resume recovers every incomplete
//    session recomputing nothing.
//
// Determinism: ranges are fixed up front as the canonical i·n/K split, the
// per-range ShardResult payload is a pure function of the instance, and
// the final compaction folds shard files in shard-index order — so every
// served certificate is byte-identical to single-process `certify` no
// matter which workers computed which ranges, in what order, after how
// many failures, or how many sibling sessions ran concurrently.
//
// A single-job serve is serve_jobs with one JobSpec; flat_journal keeps the
// legacy layout in which the journal directory IS that session's directory,
// so journals written in that layout still resume.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/usage_cost.hpp"
#include "graph/graph.hpp"
#include "svc/journal.hpp"

namespace bncg::svc {

/// One queued certification job of a multi-session serve. Identity only —
/// the dispatcher never needs the graph itself, just the fingerprint it
/// routes workers by (workers load their own copy and are refused when it
/// does not match any queued job).
struct JobSpec {
  std::uint64_t fingerprint = 0;  ///< graph_fingerprint of the instance
  Vertex n = 0;
  std::uint64_t m = 0;
  UsageCost model = UsageCost::Sum;
  bool include_deletions = false;
  bool stop_on_violation = false;
  /// Number of agent ranges; 0 = auto: min(n, 16).
  std::size_t shards = 0;
};

struct MultiServeConfig {
  /// Listen address ("unix:/path" or "tcp:host:port"; tcp port 0 lets the
  /// kernel choose — the resolved address is logged).
  std::string address;
  /// Lease deadline: a range not delivered within this window is
  /// re-dispatched to other workers (the original holder may still
  /// deliver late — first valid result wins).
  std::uint64_t lease_ms = 5000;
  /// Re-dispatch budget per range: a range failing more than max_retries
  /// times (disconnect, expiry, corruption) is quarantined.
  std::uint32_t max_retries = 3;
  /// Exponential backoff base: the k-th failure of a range delays its
  /// re-dispatch by redispatch_delay_ms(backoff_ms, k).
  std::uint64_t backoff_ms = 50;
  /// Root of the per-session journals ("" = throwaway spool sinks). Each
  /// session journals under <journal_root>/<session_dir_name(header)>.
  std::string journal_root;
  /// Reopen every session journal found under journal_root (plus the ones
  /// the job specs key to) and skip every range already certified.
  bool resume = false;
  /// Legacy single-job layout: journal_root IS the one session's journal
  /// directory (requires exactly one job); `bncg_certify serve --graph`
  /// sets this.
  bool flat_journal = false;
  /// Number of Submit-created sessions to accept before submissions
  /// close. While submissions are open, a worker whose instance matches
  /// no queued job is PARKED (told via a JobStatus frame) and adopted the
  /// moment a matching job arrives; once closed, unmatched workers are
  /// refused at handshake. 0 = submissions closed from the start.
  std::size_t accept_submissions = 0;
};

/// Telemetry of one serve run (stderr-reported by the CLI; asserted by the
/// fault-injection harness). Strike accounting is one-strike-per-event: a
/// frame that is both corrupt and from a stale lease holder counts ONE
/// corrupt_results strike and zero disconnects; disconnects counts only
/// workers lost while holding the CURRENT lease of their range.
struct ServeStats {
  std::size_t workers_connected = 0;
  std::size_t handshakes_refused = 0;
  std::size_t leases_granted = 0;
  std::size_t redispatches = 0;  ///< leases granted beyond a range's first
  std::size_t expired_leases = 0;
  std::size_t disconnects = 0;      ///< current-lease holders lost mid-lease
  std::size_t corrupt_results = 0;  ///< frame- or shard-level corruption strikes
  std::size_t duplicate_results = 0;
  std::size_t resumed_ranges = 0;  ///< completed ranges recovered from journals
  std::size_t journaled_ranges = 0;
  std::size_t sessions_queued = 0;     ///< jobs queued (specs + submissions + resume)
  std::size_t sessions_completed = 0;
  std::size_t sessions_refused = 0;    ///< partial-coverage refusals
  std::size_t workers_parked = 0;      ///< unmatched hellos parked, not refused
};

/// A quarantined range in a refusal outcome.
struct QuarantinedRange {
  AgentRange range;
  std::uint32_t failures = 0;
};

/// Terminal state of one session of a multi-session serve.
struct SessionOutcome {
  std::uint64_t session_id = 0;
  JournalHeader header;  ///< identity + resolved shard count of the job
  /// True when every range completed; `certificate` is then the streamed
  /// fold, byte-for-byte the single-process result.
  bool complete = false;
  std::optional<ShardedCertificate> certificate;
  std::vector<QuarantinedRange> quarantined;
  Vertex agents_uncovered = 0;
  std::size_t resumed_ranges = 0;
};

struct MultiServeOutcome {
  std::vector<SessionOutcome> sessions;  ///< in session-id order
  ServeStats stats;
};

/// Ceiling of any re-dispatch backoff delay (one hour): the saturation
/// point of redispatch_delay_ms for arbitrarily large backoff bases.
inline constexpr std::uint64_t kMaxRedispatchDelayMs = 3'600'000;

/// Backoff delay of the k-th failure (`failures` = k ≥ 1) of a range:
/// backoff_ms · 2^(min(k−1, 6)), saturating at kMaxRedispatchDelayMs
/// instead of overflowing — a huge --backoff-ms with a deep retry budget
/// yields a one-hour delay, never a zero or time-travelling one.
[[nodiscard]] std::uint64_t redispatch_delay_ms(std::uint64_t backoff_ms,
                                                std::uint32_t failures);

/// Runs the multi-session dispatcher until every queued (and accepted)
/// session completes or refuses. Blocks; single-threaded poll loop.
/// Throws std::invalid_argument on configuration/journal guard violations
/// and TransportError on listener failure. `log` (nullable) receives
/// one-line progress telemetry.
[[nodiscard]] MultiServeOutcome serve_jobs(const std::vector<JobSpec>& jobs,
                                           const MultiServeConfig& config,
                                           std::ostream* log = nullptr);

}  // namespace bncg::svc
