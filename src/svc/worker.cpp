#include "svc/worker.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "core/certify_sharded.hpp"
#include "core/certify_wire.hpp"
#include "core/swap_engine.hpp"
#include "graph/io.hpp"
#include "svc/net.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bncg::svc {

namespace {

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

[[nodiscard]] Socket connect_with_retry(const ConnectConfig& config, std::ostream* log) {
  std::uint64_t backoff = config.connect_backoff_ms;
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      return connect_to(config.address);
    } catch (const TransportError& e) {
      if (attempt >= config.connect_retries) throw;
      if (log != nullptr) {
        *log << "worker: connect attempt " << (attempt + 1) << " failed (" << e.what()
             << "), retrying in " << backoff << " ms\n";
      }
      sleep_ms(backoff);
      backoff = std::min<std::uint64_t>(backoff * 2, 5000);
    }
  }
}

void flip_seeded_bit(std::string& bytes, std::size_t first, Xoshiro256ss& rng) {
  if (bytes.size() <= first) return;
  const std::size_t span = bytes.size() - first;
  const std::size_t byte = first + static_cast<std::size_t>(rng() % span);
  bytes[byte] = static_cast<char>(static_cast<unsigned char>(bytes[byte]) ^
                                  (1u << (rng() % 8)));
}

}  // namespace

WorkerReport run_connect_worker(const Graph& g, const ConnectConfig& config, std::ostream* log) {
  WorkerReport report;
  Socket sock = connect_with_retry(config, log);

  HelloBody hello;
  hello.fingerprint = graph_fingerprint(g);
  hello.n = g.num_vertices();
  hello.m = g.num_edges();
  hello.session_id = config.session_id;
  sock.send_frame(make_hello(hello));

  // The handshake reply is Welcome (work now), Refuse (wrong instance),
  // Done (nothing left to serve), or JobStatus — parked until a matching
  // job is submitted, at which point a Welcome follows.
  Frame reply = sock.recv_frame();
  while (reply.type == FrameType::JobStatus) {
    if (!report.parked && log != nullptr) {
      *log << "worker: parked — no queued job matches this instance yet\n";
    }
    report.parked = true;
    reply = sock.recv_frame();
  }
  if (reply.type == FrameType::Refuse) {
    report.refused = true;
    report.refuse_reason = parse_refuse(reply);
    return report;
  }
  if (reply.type == FrameType::Done) return report;
  (void)parse_welcome(reply);  // validated; run config now arrives per lease

  const SwapEngine engine(g, config.resources);
  SwapEngine::Scratch scratch;
  Xoshiro256ss rng(config.chaos.seed);
  const ChaosConfig::Mode mode = config.chaos.mode;
  std::size_t lease_no = 0;

  while (true) {
    const Frame frame = sock.recv_frame();
    if (frame.type == FrameType::Done) return report;
    const LeaseBody lease = parse_lease(frame);
    ++lease_no;

    if (mode == ChaosConfig::Mode::Crash && lease_no == 1) {
      // Crash mid-range: do half the work so the kill lands between
      // agents, then die without flushing a byte. _Exit skips all
      // teardown — exactly what a SIGKILL'd worker looks like.
      AgentRange half = lease.range;
      half.hi = lease.range.lo + (lease.range.hi - lease.range.lo) / 2;
      if (half.hi > half.lo) {
        (void)certify_agent_range(engine, half, lease.model, lease.include_deletions,
                                  lease.stop_on_violation, &scratch);
      }
      std::_Exit(12);
    }
    if (mode == ChaosConfig::Mode::Hang && lease_no == 1) {
      // Outlive the lease, then deliver anyway: the dispatcher must have
      // re-dispatched, and this late result exercises first-valid-wins.
      sleep_ms(lease.lease_ms + lease.lease_ms / 2 + 250);
    }
    if (mode == ChaosConfig::Mode::Slow) sleep_ms(config.chaos.delay_ms);

    // The lease body carries the session's run configuration — under a
    // multiplexed dispatcher consecutive leases may belong to different
    // sessions (same graph, different model or flags).
    const ShardResult shard = certify_agent_range(engine, lease.range, lease.model,
                                                  lease.include_deletions,
                                                  lease.stop_on_violation, &scratch);
    std::string shard_bytes = shard_to_binary(shard);
    const bool corrupt_this =
        mode == ChaosConfig::Mode::CorruptAll ||
        (mode == ChaosConfig::Mode::Corrupt && lease_no == 1);
    if (corrupt_this) {
      if ((rng() & 1) != 0) {
        // Shard-layer flip: the frame checksum is computed over the
        // corrupted payload, so only certify_wire's own checksum catches
        // it.
        flip_seeded_bit(shard_bytes, 0, rng);
        sock.send_bytes(encode_frame(make_result(std::move(shard_bytes))));
      } else {
        // Frame-layer flip inside the payload region: caught by the frame
        // checksum before the shard decoder even runs.
        std::string frame_bytes = encode_frame(make_result(std::move(shard_bytes)));
        flip_seeded_bit(frame_bytes, 9, rng);  // past magic+type+length
        sock.send_bytes(frame_bytes);
      }
    } else {
      const std::string frame_bytes = encode_frame(make_result(std::move(shard_bytes)));
      sock.send_bytes(frame_bytes);
      if (mode == ChaosConfig::Mode::Duplicate) sock.send_bytes(frame_bytes);
    }
    ++report.leases_completed;
    report.agents_scanned += lease.range.hi - lease.range.lo;
    report.lease_sessions.push_back(lease.session_id);
    if (log != nullptr) {
      *log << "worker: session " << lease.session_id << " range " << lease.range.shard_index
           << " [" << lease.range.lo << ", " << lease.range.hi << ") sent\n";
    }
  }
}

AcceptedBody submit_job(const ConnectConfig& config, const SubmitBody& job) {
  Socket sock = connect_with_retry(config, nullptr);
  sock.send_frame(make_submit(job));
  const Frame reply = sock.recv_frame();
  if (reply.type == FrameType::Refuse) {
    throw std::invalid_argument("submit refused: " + parse_refuse(reply));
  }
  return parse_accepted(reply);
}

JobStatusBody query_jobs(const ConnectConfig& config) {
  Socket sock = connect_with_retry(config, nullptr);
  sock.send_frame(make_job_query());
  JobStatusBody status = parse_job_status(sock.recv_frame());
  BNCG_REQUIRE(status.report, "status: dispatcher replied with a query, not a report");
  return status;
}

}  // namespace bncg::svc
