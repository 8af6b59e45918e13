// Fault-tolerant dispatcher (svc/dispatcher.hpp) end to end, with
// in-process worker threads over unix-domain sockets: served certificates
// must be byte-identical to the single-process certifiers under every
// injected fault (disconnects, expired leases, corruption, duplicates),
// degradation must be a refusal rather than a wrong verdict, and the
// crash-safe journal must make --resume recompute nothing. Crash chaos
// (std::_Exit) is exercised by scripts/certify_chaos.sh, which owns real
// processes; everything else injects faults in-process here.
#include "svc/dispatcher.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "certificate_oracle.hpp"
#include "core/certify_sharded.hpp"
#include "core/swap_engine.hpp"
#include "gen/random.hpp"
#include "graph/io.hpp"
#include "svc/journal.hpp"
#include "svc/net.hpp"
#include "svc/protocol.hpp"
#include "svc/worker.hpp"
#include "util/rng.hpp"

namespace bncg::svc {
namespace {

namespace fs = std::filesystem;

void nap() { std::this_thread::sleep_for(std::chrono::milliseconds(25)); }

class SvcDispatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest -j runs each TEST_F as its own process, and
    // a shared directory makes SetUp's remove_all race a sibling's
    // socket/journal files at the same path. The pid suffix stays short on
    // purpose — this directory holds unix-domain sockets, whose sun_path
    // limit punishes long prefixes. In-process tests run sequentially and
    // TearDown removes the directory, so the pid alone disambiguates.
    dir_ = (fs::temp_directory_path() /
            ("bncg_svc_dispatcher_" + std::to_string(static_cast<long>(::getpid()))))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    Xoshiro256ss rng(0xD15);
    g_ = random_connected_gnm(48, 120, rng);
  }

  void TearDown() override {
    join_workers();
    fs::remove_all(dir_);
  }

  /// Stops retry loops and joins every worker thread (serve has returned
  /// by the time callers use this, so nothing is left to talk to).
  void join_workers() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    stop_.store(false);
  }

  [[nodiscard]] std::string socket_address(const std::string& name) const {
    return "unix:" + dir_ + "/" + name + ".sock";
  }

  /// Launches run_connect_worker on a background thread, reconnecting
  /// through TransportError until the session ends cleanly (Done/Refuse)
  /// or the test stops it. `gate`, when given, delays the first connect
  /// until another thread raises it — used to sequence faults
  /// deterministically. The final report lands in `*report_out`.
  void spawn_worker(const Graph& g, ConnectConfig config,
                    const std::atomic<bool>* gate = nullptr,
                    std::optional<WorkerReport>* report_out = nullptr) {
    config.connect_retries = 0;
    threads_.emplace_back([this, &g, config, gate, report_out] {
      while (gate != nullptr && !gate->load() && !stop_.load()) nap();
      while (!stop_.load()) {
        try {
          const WorkerReport report = run_connect_worker(g, config);
          if (report_out != nullptr) *report_out = report;
          return;
        } catch (const TransportError&) {
          nap();
        }
      }
    });
  }

  /// A protocol-fluent saboteur: handshakes, takes one lease, raises
  /// `got_lease`, and disconnects without delivering anything.
  void spawn_lease_dropper(const std::string& address, std::atomic<bool>& got_lease) {
    threads_.emplace_back([this, address, &got_lease] {
      Socket sock;
      while (!sock.valid() && !stop_.load()) {
        try {
          sock = connect_to(address);
        } catch (const TransportError&) {
          nap();
        }
      }
      if (!sock.valid()) return;
      try {
        HelloBody hello;
        hello.fingerprint = graph_fingerprint(g_);
        hello.n = g_.num_vertices();
        hello.m = g_.num_edges();
        sock.send_frame(make_hello(hello));
        if (sock.recv_frame().type != FrameType::Welcome) return;
        if (sock.recv_frame().type != FrameType::Lease) return;
      } catch (const TransportError&) {
        return;
      }
      got_lease.store(true);
      // Destructor closes the socket: the accepted lease dies with it.
    });
  }

  /// Outcome of a single-job serve: its one session plus the run's stats.
  struct SingleServe {
    SessionOutcome session;
    ServeStats stats;
  };

  /// Serves g_ as `bncg_certify serve --graph` does: one JobSpec keyed to
  /// the graph, the flat journal layout, no submissions.
  [[nodiscard]] SingleServe serve(JobSpec job, MultiServeConfig config) {
    job.fingerprint = graph_fingerprint(g_);
    job.n = g_.num_vertices();
    job.m = g_.num_edges();
    config.flat_journal = true;
    MultiServeOutcome out = serve_jobs({job}, config, nullptr);
    return {std::move(out.sessions.front()), out.stats};
  }

  void expect_parity(const SingleServe& outcome, UsageCost model, bool deletions,
                     const std::string& context) {
    ASSERT_TRUE(outcome.session.complete) << context;
    ASSERT_TRUE(outcome.session.certificate.has_value()) << context;
    expect_same_certificate(outcome.session.certificate->certificate,
                            naive_certificate(g_, model, deletions), context);
    EXPECT_EQ(outcome.session.certificate->agents_scanned, g_.num_vertices()) << context;
  }

  std::string dir_;
  Graph g_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

TEST_F(SvcDispatcherTest, HonestWorkersReproduceTheCertificate) {
  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("honest");
  job.shards = 6;
  job.model = UsageCost::Max;
  job.include_deletions = true;
  spawn_worker(g_, {.address = config.address});
  spawn_worker(g_, {.address = config.address});
  const SingleServe outcome = serve(job, config);
  expect_parity(outcome, UsageCost::Max, true, "two honest workers");
  EXPECT_EQ(outcome.stats.redispatches, 0u);
  EXPECT_EQ(outcome.stats.corrupt_results, 0u);
  EXPECT_GE(outcome.stats.workers_connected, 1u);  // one may arrive post-finish
  EXPECT_EQ(outcome.stats.leases_granted, 6u);
}

TEST_F(SvcDispatcherTest, WrongInstanceWorkerRefusedAtHandshake) {
  Xoshiro256ss rng(0xBAD);
  const Graph wrong = random_connected_gnm(48, 120, rng);
  ASSERT_NE(graph_fingerprint(wrong), graph_fingerprint(g_));
  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("refuse");
  job.shards = 3;

  // The honest worker starts only after the wrong-instance worker has
  // been refused, so the refusal can never race the run's completion.
  std::optional<WorkerReport> wrong_report;
  std::atomic<bool> refused{false};
  threads_.emplace_back([&, this] {
    ConnectConfig worker;
    worker.address = config.address;
    worker.connect_retries = 0;
    while (!stop_.load()) {
      try {
        wrong_report = run_connect_worker(wrong, worker);
        break;
      } catch (const TransportError&) {
        nap();
      }
    }
    refused.store(true);
  });
  spawn_worker(g_, {.address = config.address}, &refused);

  const SingleServe outcome = serve(job, config);
  expect_parity(outcome, UsageCost::Sum, false, "refusal then honest completion");
  join_workers();
  ASSERT_TRUE(wrong_report.has_value());
  EXPECT_TRUE(wrong_report->refused);
  EXPECT_NE(wrong_report->refuse_reason.find("fingerprint"), std::string::npos);
  EXPECT_EQ(wrong_report->leases_completed, 0u);
  EXPECT_EQ(outcome.stats.handshakes_refused, 1u);
}

TEST_F(SvcDispatcherTest, DisconnectMidLeaseIsRedispatched) {
  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("drop");
  job.shards = 4;
  config.backoff_ms = 10;
  std::atomic<bool> dropped{false};
  spawn_lease_dropper(config.address, dropped);
  spawn_worker(g_, {.address = config.address}, &dropped);
  const SingleServe outcome = serve(job, config);
  expect_parity(outcome, UsageCost::Sum, false, "disconnect re-dispatch");
  EXPECT_GE(outcome.stats.disconnects, 1u);
  EXPECT_GE(outcome.stats.redispatches, 1u);
  EXPECT_GE(outcome.stats.leases_granted, 5u);
}

TEST_F(SvcDispatcherTest, ExpiredLeaseIsStolenByHonestWorker) {
  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("hang");
  job.shards = 4;
  config.lease_ms = 400;  // the hang worker sleeps ~850 ms past its grant
  config.backoff_ms = 10;
  ConnectConfig hanging;
  hanging.address = config.address;
  hanging.chaos.mode = ChaosConfig::Mode::Hang;
  spawn_worker(g_, hanging);
  // The honest worker is slowed so the hang worker reliably wins a lease
  // before the honest one drains every range.
  ConnectConfig slowed;
  slowed.address = config.address;
  slowed.chaos.mode = ChaosConfig::Mode::Slow;
  slowed.chaos.delay_ms = 100;
  spawn_worker(g_, slowed);
  const SingleServe outcome = serve(job, config);
  expect_parity(outcome, UsageCost::Sum, false, "straggler work stealing");
  EXPECT_GE(outcome.stats.expired_leases, 1u);
  EXPECT_GE(outcome.stats.redispatches, 1u);
}

TEST_F(SvcDispatcherTest, CorruptionExhaustsRetriesIntoRefusalNeverAWrongVerdict) {
  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("corrupt");
  job.shards = 1;
  config.max_retries = 0;  // first strike quarantines
  ConnectConfig corrupting;
  corrupting.address = config.address;
  corrupting.chaos.mode = ChaosConfig::Mode::CorruptAll;
  corrupting.chaos.seed = 7;
  spawn_worker(g_, corrupting);
  const SingleServe outcome = serve(job, config);
  EXPECT_FALSE(outcome.session.complete);
  EXPECT_FALSE(outcome.session.certificate.has_value());
  ASSERT_EQ(outcome.session.quarantined.size(), 1u);
  EXPECT_EQ(outcome.session.quarantined.front().failures, 1u);
  EXPECT_EQ(outcome.session.agents_uncovered, g_.num_vertices());
  EXPECT_GE(outcome.stats.corrupt_results, 1u);
}

TEST_F(SvcDispatcherTest, DuplicateResultsAreCountedNotDoubleFolded) {
  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("dup");
  job.shards = 5;
  ConnectConfig duplicating;
  duplicating.address = config.address;
  duplicating.chaos.mode = ChaosConfig::Mode::Duplicate;
  spawn_worker(g_, duplicating);
  const SingleServe outcome = serve(job, config);
  expect_parity(outcome, UsageCost::Sum, false, "double-sent results");
  // The final range's duplicate may race the dispatcher's own shutdown;
  // every earlier one must have been seen and ignored.
  EXPECT_GE(outcome.stats.duplicate_results, 4u);
  EXPECT_EQ(outcome.stats.corrupt_results, 0u);
}

TEST_F(SvcDispatcherTest, JournalResumeRecomputesNothingAlreadyCertified) {
  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("journal");
  job.shards = 5;
  config.journal_root = dir_ + "/journal";

  // Seed the journal exactly as a killed dispatcher would have left it:
  // a valid session plus two completed ranges.
  {
    JournalHeader header;
    header.fingerprint = graph_fingerprint(g_);
    header.n = g_.num_vertices();
    header.m = g_.num_edges();
    header.shard_count = 5;
    ShardJournal journal = ShardJournal::create(config.journal_root, header);
    const SwapEngine engine(g_);
    for (const std::uint32_t idx : {0u, 3u}) {
      AgentRange range;
      range.shard_index = idx;
      range.shard_count = 5;
      range.lo = static_cast<Vertex>(idx * g_.num_vertices() / 5);
      range.hi = static_cast<Vertex>((idx + 1) * g_.num_vertices() / 5);
      journal.record(certify_agent_range(engine, range, UsageCost::Sum, false, false));
    }
  }

  config.resume = true;
  spawn_worker(g_, {.address = config.address});
  const SingleServe outcome = serve(job, config);
  expect_parity(outcome, UsageCost::Sum, false, "partial resume");
  EXPECT_EQ(outcome.stats.resumed_ranges, 2u);
  EXPECT_EQ(outcome.stats.leases_granted, 3u);  // only the missing ranges
  EXPECT_EQ(outcome.stats.journaled_ranges, 3u);

  // Second resume: the journal now covers everything — the dispatcher
  // must finish without granting a single lease (and without a listener:
  // no worker is even spawned).
  const SingleServe replay = serve(job, config);
  expect_parity(replay, UsageCost::Sum, false, "full resume");
  EXPECT_EQ(replay.stats.resumed_ranges, 5u);
  EXPECT_EQ(replay.stats.leases_granted, 0u);
}

TEST_F(SvcDispatcherTest, ResumeRefusesForeignJournal) {
  Xoshiro256ss rng(0xFEED);
  const Graph other = random_connected_gnm(48, 120, rng);
  ASSERT_NE(graph_fingerprint(other), graph_fingerprint(g_));
  JournalHeader header;
  header.fingerprint = graph_fingerprint(other);
  header.n = other.num_vertices();
  header.m = other.num_edges();
  header.shard_count = 2;
  { (void)ShardJournal::create(dir_ + "/foreign", header); }

  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("foreign");
  config.journal_root = dir_ + "/foreign";
  config.resume = true;
  EXPECT_THROW((void)serve(job, config), std::invalid_argument);

  // Same instance but a different run configuration is refused too.
  JournalHeader mine;
  mine.fingerprint = graph_fingerprint(g_);
  mine.n = g_.num_vertices();
  mine.m = g_.num_edges();
  mine.model = UsageCost::Max;
  mine.shard_count = 2;
  { (void)ShardJournal::create(dir_ + "/othermodel", mine); }
  config.journal_root = dir_ + "/othermodel";
  EXPECT_THROW((void)serve(job, config), std::invalid_argument);
}

TEST_F(SvcDispatcherTest, ResumePinsTheJournalShardCount) {
  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("pin");
  job.shards = 4;
  config.journal_root = dir_ + "/pin";
  spawn_worker(g_, {.address = config.address});
  const SingleServe first = serve(job, config);
  expect_parity(first, UsageCost::Sum, false, "journaled run");
  join_workers();

  // Re-serve with a different --shards: the journal's split must win, and
  // with all 4 ranges recovered no worker is needed at all.
  job.shards = 9;
  config.resume = true;
  const SingleServe resumed = serve(job, config);
  expect_parity(resumed, UsageCost::Sum, false, "resume with shard override");
  EXPECT_EQ(resumed.stats.resumed_ranges, 4u);
  EXPECT_EQ(resumed.session.certificate->shards_used, 4u);
}

// --- session multiplexing (serve_jobs) --------------------------------------

TEST_F(SvcDispatcherTest, RedispatchDelaySaturatesInsteadOfOverflowing) {
  // The k-th failure backs off by backoff·2^min(k−1, 6): a pinned sequence,
  // because scripts and operators reason about these exact delays.
  const std::uint64_t want[] = {50, 100, 200, 400, 800, 1600, 3200, 3200, 3200};
  for (std::uint32_t k = 1; k <= 9; ++k) {
    EXPECT_EQ(redispatch_delay_ms(50, k), want[k - 1]) << "failure " << k;
  }
  // A huge base with a deep retry budget must saturate at the one-hour
  // ceiling — never shift into zero or a past deadline.
  EXPECT_EQ(redispatch_delay_ms(~0ull, 1), kMaxRedispatchDelayMs);
  EXPECT_EQ(redispatch_delay_ms(~0ull, 200), kMaxRedispatchDelayMs);
  EXPECT_EQ(redispatch_delay_ms(kMaxRedispatchDelayMs, 7), kMaxRedispatchDelayMs);
  EXPECT_EQ(redispatch_delay_ms(kMaxRedispatchDelayMs / 2, 2), kMaxRedispatchDelayMs / 2 * 2);
  EXPECT_EQ(redispatch_delay_ms(1, 100), 64u);  // exponent clamped at 2^6
  EXPECT_GT(redispatch_delay_ms(1, 1), 0u);
}

[[nodiscard]] JobSpec job_for(const Graph& g, UsageCost model, std::size_t shards) {
  JobSpec job;
  job.fingerprint = graph_fingerprint(g);
  job.n = g.num_vertices();
  job.m = g.num_edges();
  job.model = model;
  job.shards = shards;
  return job;
}

TEST_F(SvcDispatcherTest, SiblingSessionsShareOneWorkerAndBothMatchReference) {
  // Two sessions over the SAME instance differing only in run config: the
  // per-lease configuration must keep one worker from ever certifying the
  // wrong clause, and the fair scheduler must alternate between them.
  MultiServeConfig config;
  config.address = socket_address("siblings");
  const std::vector<JobSpec> jobs = {job_for(g_, UsageCost::Sum, 3),
                                     job_for(g_, UsageCost::Max, 3)};
  std::optional<WorkerReport> report;
  spawn_worker(g_, {.address = config.address}, nullptr, &report);
  const MultiServeOutcome outcome = serve_jobs(jobs, config, nullptr);
  join_workers();

  ASSERT_EQ(outcome.sessions.size(), 2u);
  for (const SessionOutcome& s : outcome.sessions) {
    ASSERT_TRUE(s.complete) << "session " << s.session_id;
    expect_same_certificate(s.certificate->certificate,
                            naive_certificate(g_, s.header.model, false),
                            "session " + std::to_string(s.session_id));
  }
  EXPECT_EQ(outcome.stats.sessions_queued, 2u);
  EXPECT_EQ(outcome.stats.sessions_completed, 2u);
  EXPECT_EQ(outcome.stats.sessions_refused, 0u);
  EXPECT_EQ(outcome.stats.leases_granted, 6u);

  // Deficit fairness with a single worker is fully deterministic: least
  // granted first, ties to the lowest session id — strict alternation.
  ASSERT_TRUE(report.has_value());
  const std::vector<std::uint64_t> want = {1, 2, 1, 2, 1, 2};
  EXPECT_EQ(report->lease_sessions, want);
}

TEST_F(SvcDispatcherTest, ParkedWorkerIsAdoptedBySubmittedJob) {
  MultiServeConfig config;
  config.address = socket_address("parked");
  config.accept_submissions = 1;

  // The worker dials an empty dispatcher first (gate-free: submissions are
  // open, so it parks instead of being refused), THEN a control client
  // submits the matching job.
  std::optional<WorkerReport> report;
  spawn_worker(g_, {.address = config.address}, nullptr, &report);
  std::optional<AcceptedBody> accepted;
  threads_.emplace_back([&, this] {
    ConnectConfig client;
    client.address = config.address;
    client.connect_retries = 0;
    SubmitBody job;
    job.fingerprint = graph_fingerprint(g_);
    job.n = g_.num_vertices();
    job.m = g_.num_edges();
    job.shard_count = 4;
    // Give the worker time to connect and park before the job exists.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    while (!stop_.load()) {
      try {
        accepted = submit_job(client, job);
        return;
      } catch (const TransportError&) {
        nap();
      }
    }
  });

  const MultiServeOutcome outcome = serve_jobs({}, config, nullptr);
  join_workers();
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(accepted->session_id, 1u);
  EXPECT_FALSE(accepted->already_queued);
  ASSERT_EQ(outcome.sessions.size(), 1u);
  ASSERT_TRUE(outcome.sessions.front().complete);
  expect_same_certificate(outcome.sessions.front().certificate->certificate,
                          naive_certificate(g_, UsageCost::Sum, false), "submitted session");
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->parked);
  EXPECT_GE(report->leases_completed, 1u);
  EXPECT_GE(outcome.stats.workers_parked, 1u);
}

TEST_F(SvcDispatcherTest, QuarantinedSessionNeverPoisonsItsSibling) {
  Xoshiro256ss rng(0x5EED);
  const Graph doomed = random_connected_gnm(48, 120, rng);
  ASSERT_NE(graph_fingerprint(doomed), graph_fingerprint(g_));

  MultiServeConfig config;
  config.address = socket_address("isolate");
  config.max_retries = 0;  // first strike quarantines
  const std::vector<JobSpec> jobs = {job_for(g_, UsageCost::Sum, 3),
                                     job_for(doomed, UsageCost::Sum, 1)};
  spawn_worker(g_, {.address = config.address});
  ConnectConfig corrupting;
  corrupting.address = config.address;
  corrupting.chaos.mode = ChaosConfig::Mode::CorruptAll;
  spawn_worker(doomed, corrupting);

  const MultiServeOutcome outcome = serve_jobs(jobs, config, nullptr);
  ASSERT_EQ(outcome.sessions.size(), 2u);
  const SessionOutcome& healthy = outcome.sessions[0];
  const SessionOutcome& poisoned = outcome.sessions[1];
  ASSERT_TRUE(healthy.complete) << "sibling session must be untouched";
  expect_same_certificate(healthy.certificate->certificate,
                          naive_certificate(g_, UsageCost::Sum, false), "healthy sibling");
  EXPECT_FALSE(poisoned.complete);
  EXPECT_FALSE(poisoned.certificate.has_value());
  ASSERT_EQ(poisoned.quarantined.size(), 1u);
  EXPECT_EQ(poisoned.agents_uncovered, doomed.num_vertices());
  EXPECT_EQ(outcome.stats.sessions_completed, 1u);
  EXPECT_EQ(outcome.stats.sessions_refused, 1u);
}

TEST_F(SvcDispatcherTest, StaleCorruptFrameCountsExactlyOneStrike) {
  // A saboteur takes the only lease, outlives it, and then delivers a
  // corrupt frame: ONE corrupt strike, ZERO disconnects (it no longer
  // holds the current lease, so neither the corruption nor the resulting
  // close may fail the range again), and the honest worker's re-dispatched
  // result still completes the run.
  JobSpec job;
  MultiServeConfig config;
  config.address = socket_address("onestrike");
  job.shards = 1;
  config.lease_ms = 300;
  config.backoff_ms = 10;
  config.max_retries = 3;

  std::atomic<bool> expired_and_sent{false};
  threads_.emplace_back([this, &config, &expired_and_sent] {
    Socket sock;
    while (!sock.valid() && !stop_.load()) {
      try {
        sock = connect_to(config.address);
      } catch (const TransportError&) {
        nap();
      }
    }
    if (!sock.valid()) return;
    try {
      HelloBody hello;
      hello.fingerprint = graph_fingerprint(g_);
      hello.n = g_.num_vertices();
      hello.m = g_.num_edges();
      sock.send_frame(make_hello(hello));
      if (sock.recv_frame().type != FrameType::Welcome) return;
      if (sock.recv_frame().type != FrameType::Lease) return;
      // Outlive the 300 ms lease, then send garbage as the "result".
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
      sock.send_frame(make_result("definitely not a shard"));
      expired_and_sent.store(true);
      // Linger so the dispatcher (not this dtor) decides to drop us.
      while (!stop_.load()) nap();
    } catch (const TransportError&) {
      expired_and_sent.store(true);
    }
  });
  // The honest worker connects only after the saboteur's lease expired —
  // the single range must go to the saboteur first.
  spawn_worker(g_, {.address = config.address}, &expired_and_sent);

  const SingleServe outcome = serve(job, config);
  expect_parity(outcome, UsageCost::Sum, false, "stale corrupt frame");
  EXPECT_EQ(outcome.stats.expired_leases, 1u);
  EXPECT_EQ(outcome.stats.corrupt_results, 1u);
  EXPECT_EQ(outcome.stats.disconnects, 0u);
}

}  // namespace
}  // namespace bncg::svc
