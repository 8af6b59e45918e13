// Connected certification worker + deterministic fault injection
// (DESIGN.md §12, §15).
//
// run_connect_worker dials a dispatcher (svc/dispatcher.hpp), handshakes
// with the instance fingerprint it loaded (refused at connect time when it
// matches no queued job and submissions are closed), then loops: receive a
// lease, certify the range with the exact same certify_agent_range scan
// the in-process and file-based pipelines use, stream the wire-encoded
// ShardResult back. Run configuration (model, deletion clause,
// stop-on-violation) comes from EACH lease — under a session-multiplexed
// dispatcher one worker process serves sibling sessions over the same
// graph that differ only in run configuration, and can still never
// certify the wrong clause. A worker whose instance matches no queued job
// while submissions are open is PARKED (JobStatus frame) and woken with a
// Welcome once a matching job is submitted.
//
// ChaosConfig turns the same loop into a seeded fault injector (the
// `bncg_certify chaos-worker` mode): crash mid-range, hang past the
// lease, flip one bit in a result (at the frame or the shard layer),
// double-send, or just run slow. Every behavior is deterministic given
// the seed, so the fault-injection harness (scripts/certify_chaos.sh,
// tests/test_svc_dispatcher.cpp) asserts exact outcomes, not luck.
//
// submit_job / query_jobs are the thin client calls behind the CLI's
// `submit` and `status` modes: one connection, one frame each way.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/dist_provider.hpp"
#include "graph/graph.hpp"
#include "svc/protocol.hpp"

namespace bncg::svc {

struct ChaosConfig {
  enum class Mode {
    None,
    Crash,       ///< scan half of the first lease, then _Exit without a word
    Hang,        ///< sleep past the first lease's deadline, then deliver late
    Corrupt,     ///< flip one seeded bit in the first result, then behave
    CorruptAll,  ///< flip one seeded bit in every result
    Duplicate,   ///< send every result frame twice
    Slow,        ///< sleep delay_ms before every lease (benign straggler)
  };
  Mode mode = Mode::None;
  std::uint64_t seed = 1;
  std::uint64_t delay_ms = 150;  ///< Slow mode's per-lease delay
};

struct ConnectConfig {
  std::string address;
  /// Engine resources of this worker (core/dist_provider.hpp): width plus
  /// the per-process memory budget. A budget below the dense n×n slab runs
  /// the leased scans against the blocked row cache — how one worker box
  /// serves instances whose dense matrices it cannot hold.
  ResourceConfig resources;
  /// Bounded connect retry: 1 + connect_retries attempts with exponential
  /// backoff starting at connect_backoff_ms; exhaustion throws
  /// TransportError (CLI exit 4).
  std::uint32_t connect_retries = 5;
  std::uint64_t connect_backoff_ms = 100;
  ChaosConfig chaos;
  /// Pin this worker to one session id (0 = serve any session whose
  /// instance matches the loaded graph).
  std::uint64_t session_id = 0;
};

struct WorkerReport {
  bool refused = false;        ///< dispatcher refused the handshake (CLI exit 3)
  std::string refuse_reason;
  bool parked = false;         ///< dispatcher parked this worker at least once
  std::size_t leases_completed = 0;
  std::uint64_t agents_scanned = 0;
  /// Session id of each completed lease, in completion order — the fair
  /// scheduler's observable footprint (tests assert alternation).
  std::vector<std::uint64_t> lease_sessions;
};

/// Runs the connected-worker loop until the dispatcher says Done (clean
/// return) or refuses the handshake (report.refused). Throws
/// TransportError when the dispatcher is unreachable after bounded
/// retries or vanishes mid-session. Crash chaos _Exits the process —
/// never use it in-process.
[[nodiscard]] WorkerReport run_connect_worker(const Graph& g, const ConnectConfig& config,
                                              std::ostream* log = nullptr);

/// Submits one job to a dispatcher and returns its Accepted reply
/// (session id + whether the identical job was already queued). Throws
/// TransportError on connection failure and std::invalid_argument when
/// the dispatcher refuses the submission (closed, or a journal guard).
[[nodiscard]] AcceptedBody submit_job(const ConnectConfig& config, const SubmitBody& job);

/// Queries a dispatcher for its session table. Throws TransportError on
/// connection failure.
[[nodiscard]] JobStatusBody query_jobs(const ConnectConfig& config);

}  // namespace bncg::svc
