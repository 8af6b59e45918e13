#include "svc/dispatcher.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/certify_wire.hpp"
#include "svc/net.hpp"
#include "svc/protocol.hpp"
#include "svc/sink.hpp"
#include "util/error.hpp"

namespace bncg::svc {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNoConn = static_cast<std::size_t>(-1);
constexpr std::size_t kNoRange = static_cast<std::size_t>(-1);
constexpr std::size_t kNoSession = static_cast<std::size_t>(-1);
constexpr int kIdlePollMs = 10000;

struct RangeState {
  enum class St { Pending, Leased, Completed, Quarantined };
  AgentRange range;
  St st = St::Pending;
  std::uint32_t failures = 0;
  std::uint32_t grants = 0;
  Clock::time_point eligible_at{};    // backoff gate while Pending
  std::size_t lease_conn = kNoConn;   // current holder while Leased
  Clock::time_point lease_deadline{};
};

/// One queued certification job: identity, range table, and the streaming
/// witness sink its results drain into. `grants` is the fair-scheduling
/// deficit key — the session with the fewest leases granted goes first.
struct Session {
  enum class St { Active, Complete, Refused };
  std::uint64_t id = 0;
  St st = St::Active;
  JournalHeader header;
  bool durable = false;  // sink rides on a persistent journal
  std::optional<StreamingSink> sink;
  std::vector<RangeState> ranges;
  std::size_t completed_count = 0;
  std::size_t grants = 0;
  std::size_t resumed = 0;
};

struct Conn {
  enum class St { AwaitHello, Parked, Idle, Working, Closed };
  Socket sock;
  std::string inbuf;
  St st = St::AwaitHello;
  // Handshake identity (valid once past AwaitHello): what this worker's
  // loaded graph looks like, and the session it pinned itself to (0 = any).
  std::uint64_t fingerprint = 0;
  Vertex n = 0;
  std::uint64_t m = 0;
  std::uint64_t pinned_session = 0;
  std::size_t session = kNoSession;  // assignment while Working
  std::size_t range = kNoRange;
};

class Dispatcher {
 public:
  Dispatcher(const std::vector<JobSpec>& jobs, const MultiServeConfig& config, std::ostream* log)
      : jobs_(jobs), config_(config), log_(log) {}

  MultiServeOutcome run() {
    prepare();
    if (all_terminal() && submissions_closed()) {
      say("serve: journal already covers every range — no workers needed");
      return finish();
    }
    Listener listener(config_.address);
    say("serve: listening on " + listener.address() + " (" + std::to_string(sessions_.size()) +
        " sessions, " + std::to_string(total_ranges()) + " ranges, lease " +
        std::to_string(config_.lease_ms) + " ms, retry budget " +
        std::to_string(config_.max_retries) + ")");
    while (true) {
      settle_sessions();
      if (all_terminal() && submissions_closed()) break;
      assign_work();
      wait_for_events(listener);
      expire_leases();
    }
    return finish();
  }

 private:
  void say(const std::string& line) {
    if (log_ != nullptr) *log_ << line << "\n";
  }

  [[nodiscard]] bool submissions_closed() const {
    return submitted_count_ >= config_.accept_submissions;
  }

  [[nodiscard]] bool all_terminal() const {
    for (const Session& s : sessions_) {
      if (s.st == Session::St::Active) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t total_ranges() const {
    std::size_t total = 0;
    for (const Session& s : sessions_) total += s.ranges.size();
    return total;
  }

  /// Queues every job spec and, on --resume without the flat layout,
  /// every session journal found under the root (crash recovery must not
  /// depend on the operator re-listing every job).
  void prepare() {
    BNCG_REQUIRE(!config_.flat_journal || jobs_.size() == 1,
                 "serve: flat journal layout requires exactly one job");
    for (const JobSpec& job : jobs_) (void)queue_job(job);
    if (config_.resume && !config_.flat_journal && !config_.journal_root.empty()) {
      for (const std::string& dir : ShardJournal::list_session_dirs(config_.journal_root)) {
        const JournalHeader h = ShardJournal::open(dir, /*keep_records=*/false).header();
        if (find_session(h) != kNoSession) continue;  // a spec already queued it
        JobSpec job;
        job.fingerprint = h.fingerprint;
        job.n = h.n;
        job.m = h.m;
        job.model = h.model;
        job.include_deletions = h.include_deletions;
        job.stop_on_violation = h.stop_on_violation;
        job.shards = h.shard_count;
        (void)queue_job(job);
      }
    }
    BNCG_REQUIRE(!sessions_.empty() || !submissions_closed(),
                 "serve: nothing to serve — queue a job, enable submissions, or resume");
  }

  [[nodiscard]] JournalHeader resolved_header(const JobSpec& job) const {
    BNCG_REQUIRE(job.n >= 1, "serve: empty instance");
    std::size_t shards = job.shards != 0 ? job.shards : std::min<std::size_t>(job.n, 16);
    shards = std::min<std::size_t>(shards, job.n);
    JournalHeader h;
    h.fingerprint = job.fingerprint;
    h.n = job.n;
    h.m = job.m;
    h.model = job.model;
    h.include_deletions = job.include_deletions;
    h.stop_on_violation = job.stop_on_violation;
    h.shard_count = static_cast<std::uint32_t>(shards);
    return h;
  }

  /// Session whose header equals `h` field for field, or kNoSession.
  [[nodiscard]] std::size_t find_session(const JournalHeader& h) const {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const JournalHeader& o = sessions_[i].header;
      if (o.fingerprint == h.fingerprint && o.n == h.n && o.m == h.m && o.model == h.model &&
          o.include_deletions == h.include_deletions &&
          o.stop_on_violation == h.stop_on_violation && o.shard_count == h.shard_count) {
        return i;
      }
    }
    return kNoSession;
  }

  /// Queues one job as a session (idempotent: an identical job returns the
  /// existing session). Opens/creates its journal (durable sink) or a
  /// throwaway spool, and recovers completed ranges on --resume.
  std::size_t queue_job(const JobSpec& job) {
    JournalHeader h = resolved_header(job);
    {
      const std::size_t existing = find_session(h);
      if (existing != kNoSession) return existing;
    }

    std::optional<ShardJournal> journal;
    if (!config_.journal_root.empty()) {
      const std::string dir = config_.flat_journal
                                  ? config_.journal_root
                                  : config_.journal_root + "/" + ShardJournal::session_dir_name(h);
      if (config_.resume) {
        try {
          journal.emplace(ShardJournal::open(dir, /*keep_records=*/false));
        } catch (const std::runtime_error&) {
          // No session recorded there yet — resume composes with first runs.
        }
      }
      if (journal.has_value()) {
        const JournalHeader& jh = journal->header();
        BNCG_REQUIRE(jh.fingerprint == h.fingerprint && jh.n == h.n && jh.m == h.m,
                     "serve: journal belongs to a different instance");
        BNCG_REQUIRE(jh.model == h.model && jh.include_deletions == h.include_deletions &&
                         jh.stop_on_violation == h.stop_on_violation,
                     "serve: journal belongs to a different run configuration");
        // The journal's split is authoritative: ranges must match the
        // records byte for byte, so a --shards override is ignored on
        // resume.
        if (jh.shard_count != h.shard_count) {
          say("serve: journal pins shard count " + std::to_string(jh.shard_count));
          h.shard_count = jh.shard_count;
        }
      } else {
        journal.emplace(ShardJournal::create(dir, h));
        say("serve: journaling to " + dir);
      }
    }

    Session s;
    s.id = next_session_id_++;
    s.header = h;
    s.durable = journal.has_value();
    if (journal.has_value()) {
      s.sink.emplace(StreamingSink::durable(std::move(*journal)));
    } else {
      const std::string spool = (std::filesystem::temp_directory_path() /
                                 ("bncg_spool_" + std::to_string(static_cast<long>(::getpid()))) /
                                 ShardJournal::session_dir_name(h))
                                    .string();
      s.sink.emplace(StreamingSink::spool(spool, h));
    }

    const std::uint32_t shards = h.shard_count;
    s.ranges.resize(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
      RangeState& r = s.ranges[i];
      r.range.lo = static_cast<Vertex>(std::uint64_t{i} * h.n / shards);
      r.range.hi = static_cast<Vertex>((std::uint64_t{i} + 1) * h.n / shards);
      r.range.shard_index = i;
      r.range.shard_count = shards;
      if (s.sink->has(i)) {
        r.st = RangeState::St::Completed;
        ++s.completed_count;
        ++s.resumed;
        ++stats_.resumed_ranges;
      }
    }
    if (config_.resume && s.durable) {
      say("serve: journal resumed=" + std::to_string(s.resumed) + "/" + std::to_string(shards) +
          " ranges (skipped_corrupt=" + std::to_string(s.sink->skipped_corrupt()) + ")" +
          (config_.flat_journal ? "" : " session=" + std::to_string(s.id)));
    }
    if (s.completed_count == s.ranges.size()) {
      s.st = Session::St::Complete;
      ++stats_.sessions_completed;
    }
    ++stats_.sessions_queued;
    say("serve: session " + std::to_string(s.id) + " queued (n=" + std::to_string(h.n) +
        ", m=" + std::to_string(h.m) + ", shards=" + std::to_string(shards) + ")");
    sessions_.push_back(std::move(s));
    return sessions_.size() - 1;
  }

  /// True while any unfinished range of `s` can still complete: a lease is
  /// outstanding or a range still has retry budget. When false, every
  /// unfinished range is quarantined — time to refuse THIS session.
  [[nodiscard]] static bool progress_possible(const Session& s) {
    for (const RangeState& r : s.ranges) {
      if (r.st == RangeState::St::Pending || r.st == RangeState::St::Leased) return true;
    }
    return false;
  }

  /// Moves sessions to their terminal states; refusing one session never
  /// touches its siblings.
  void settle_sessions() {
    for (Session& s : sessions_) {
      if (s.st != Session::St::Active) continue;
      if (s.completed_count == s.ranges.size()) {
        s.st = Session::St::Complete;
        ++stats_.sessions_completed;
        say("serve: session " + std::to_string(s.id) + " complete");
      } else if (!progress_possible(s)) {
        s.st = Session::St::Refused;
        ++stats_.sessions_refused;
        say("serve: session " + std::to_string(s.id) +
            " refused — every unfinished range quarantined");
      }
    }
  }

  [[nodiscard]] bool identity_matches(const Conn& conn, const Session& s) const {
    return s.header.fingerprint == conn.fingerprint && s.header.n == conn.n &&
           s.header.m == conn.m;
  }

  void assign_work() {
    const Clock::time_point now = Clock::now();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c]->st != Conn::St::Idle) continue;
      const std::size_t s_idx = pick_session(*conns_[c], now);
      if (s_idx == kNoSession) continue;  // nothing dispatchable for this worker
      grant_lease(c, s_idx, pick_range(sessions_[s_idx], now), now);
    }
  }

  /// Fair scheduler: among Active sessions this worker's instance matches
  /// that have a dispatchable range right now, the one with the fewest
  /// leases granted wins; ties go to the lowest session id (= queue
  /// order), so no session starves while another drains hundreds of
  /// ranges.
  [[nodiscard]] std::size_t pick_session(const Conn& conn, Clock::time_point now) const {
    std::size_t best = kNoSession;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const Session& s = sessions_[i];
      if (s.st != Session::St::Active || !identity_matches(conn, s)) continue;
      if (conn.pinned_session != 0 && s.id != conn.pinned_session) continue;
      if (pick_range(s, now) == kNoRange) continue;
      if (best == kNoSession || s.grants < sessions_[best].grants) best = i;
    }
    return best;
  }

  [[nodiscard]] static std::size_t pick_range(const Session& s, Clock::time_point now) {
    for (std::size_t i = 0; i < s.ranges.size(); ++i) {
      const RangeState& r = s.ranges[i];
      if (r.st == RangeState::St::Pending && r.eligible_at <= now) return i;
    }
    return kNoRange;
  }

  void grant_lease(std::size_t conn_id, std::size_t s_idx, std::size_t idx,
                   Clock::time_point now) {
    Conn& conn = *conns_[conn_id];
    Session& s = sessions_[s_idx];
    RangeState& r = s.ranges[idx];
    // The lease carries the session's whole run configuration: one worker
    // process can serve sibling sessions over the same graph that differ
    // only in model or flags.
    LeaseBody lease;
    lease.range = r.range;
    lease.lease_ms = config_.lease_ms;
    lease.session_id = s.id;
    lease.model = s.header.model;
    lease.include_deletions = s.header.include_deletions;
    lease.stop_on_violation = s.header.stop_on_violation;
    try {
      conn.sock.send_frame(make_lease(lease));
    } catch (const TransportError&) {
      close_conn(conn_id);  // peer vanished before the lease landed
      return;
    }
    r.st = RangeState::St::Leased;
    r.lease_conn = conn_id;
    r.lease_deadline = now + std::chrono::milliseconds(config_.lease_ms);
    ++r.grants;
    ++s.grants;
    ++stats_.leases_granted;
    if (r.grants > 1) ++stats_.redispatches;
    conn.st = Conn::St::Working;
    conn.session = s_idx;
    conn.range = idx;
  }

  /// Poll timeout: the earliest lease deadline or backoff expiry (the
  /// latter only matters when an idle worker is waiting for it).
  [[nodiscard]] int poll_timeout_ms() const {
    const Clock::time_point now = Clock::now();
    bool any_idle = false;
    for (const auto& conn : conns_) any_idle |= conn->st == Conn::St::Idle;
    Clock::time_point wake = now + std::chrono::milliseconds(kIdlePollMs);
    for (const Session& s : sessions_) {
      if (s.st != Session::St::Active) continue;
      for (const RangeState& r : s.ranges) {
        if (r.st == RangeState::St::Leased) wake = std::min(wake, r.lease_deadline);
        if (r.st == RangeState::St::Pending && any_idle) wake = std::min(wake, r.eligible_at);
      }
    }
    const auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(wake - now).count();
    return static_cast<int>(std::clamp<long long>(delta, 0, kIdlePollMs)) + 1;
  }

  void wait_for_events(Listener& listener) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;  // conn index per pollfd past the listener
    fds.push_back({listener.fd(), POLLIN, 0});
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c]->st == Conn::St::Closed) continue;
      fds.push_back({conns_[c]->sock.fd(), POLLIN, 0});
      owners.push_back(c);
    }
    const int rc = ::poll(fds.data(), fds.size(), poll_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) return;
      throw TransportError("serve: poll failed");
    }
    if (fds[0].revents != 0) accept_new(listener);
    for (std::size_t k = 1; k < fds.size(); ++k) {
      if (fds[k].revents != 0) service_conn(owners[k - 1]);
    }
  }

  void accept_new(Listener& listener) {
    while (true) {
      Socket sock = listener.accept_connection();
      if (!sock.valid()) return;
      sock.set_nonblocking(true);
      auto conn = std::make_unique<Conn>();
      conn->sock = std::move(sock);
      conns_.push_back(std::move(conn));
      ++stats_.workers_connected;
    }
  }

  void service_conn(std::size_t conn_id) {
    Conn& conn = *conns_[conn_id];
    if (conn.st == Conn::St::Closed) return;
    Socket::ReadStatus status = Socket::ReadStatus::WouldBlock;
    do {
      status = conn.sock.read_some(conn.inbuf);
    } while (status == Socket::ReadStatus::Data);
    try {
      while (std::optional<Frame> frame = try_decode_frame(conn.inbuf)) {
        handle_frame(conn_id, *frame);
        if (conns_[conn_id]->st == Conn::St::Closed) return;
      }
    } catch (const std::invalid_argument& e) {
      corrupt_strike(conn_id, e.what());
      return;
    }
    if (status == Socket::ReadStatus::Closed) handle_close(conn_id);
  }

  void handle_frame(std::size_t conn_id, const Frame& frame) {
    Conn& conn = *conns_[conn_id];
    switch (frame.type) {
      case FrameType::Hello: {
        BNCG_REQUIRE(conn.st == Conn::St::AwaitHello, "serve: unexpected hello");
        const HelloBody hello = parse_hello(frame);
        if (hello.protocol_version != kSvcProtocolVersion) {
          refuse_conn(conn_id, "protocol version mismatch");
          return;
        }
        conn.fingerprint = hello.fingerprint;
        conn.n = hello.n;
        conn.m = hello.m;
        conn.pinned_session = hello.session_id;
        route_hello(conn_id);
        return;
      }
      case FrameType::Submit: {
        BNCG_REQUIRE(conn.st == Conn::St::AwaitHello, "serve: unexpected submit");
        handle_submit(conn_id, parse_submit(frame));
        return;
      }
      case FrameType::JobStatus: {
        // A query (report=false) from a status client; a report from a
        // peer would be a protocol violation.
        BNCG_REQUIRE(!parse_job_status(frame).report, "serve: unexpected job status report");
        try {
          conn.sock.send_frame(make_job_status(summaries()));
        } catch (const TransportError&) {
          close_conn(conn_id);
        }
        return;
      }
      case FrameType::Result: {
        BNCG_REQUIRE(conn.st == Conn::St::Working || conn.st == Conn::St::Idle,
                     "serve: result before handshake");
        accept_result(conn_id, frame.payload);
        return;
      }
      default:
        BNCG_REQUIRE(false, "serve: unexpected frame type from worker");
    }
  }

  /// Routes a handshaken worker: Welcome into the least-granted matching
  /// Active session; Done when every matching session is already terminal;
  /// Parked while submissions are still open (a matching job may yet
  /// arrive); refused otherwise.
  void route_hello(std::size_t conn_id) {
    Conn& conn = *conns_[conn_id];
    std::size_t best = kNoSession;
    bool any_match = false;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const Session& s = sessions_[i];
      if (!identity_matches(conn, s)) continue;
      if (conn.pinned_session != 0 && s.id != conn.pinned_session) continue;
      any_match = true;
      if (s.st != Session::St::Active) continue;
      if (best == kNoSession || s.grants < sessions_[best].grants) best = i;
    }
    if (best != kNoSession) {
      welcome(conn_id, best);
      return;
    }
    if (any_match) {
      // Everything this worker could serve is already decided.
      try {
        conn.sock.send_frame(make_done());
      } catch (const TransportError&) {
      }
      close_conn(conn_id);
      return;
    }
    if (!submissions_closed()) {
      say("serve: parking worker — no queued job matches, submissions still open");
      try {
        conn.sock.send_frame(make_job_status(summaries()));
      } catch (const TransportError&) {
        close_conn(conn_id);
        return;
      }
      conn.st = Conn::St::Parked;
      ++stats_.workers_parked;
      return;
    }
    refuse_conn(conn_id, "instance fingerprint mismatch — worker loaded a different graph");
  }

  void welcome(std::size_t conn_id, std::size_t s_idx) {
    Conn& conn = *conns_[conn_id];
    const Session& s = sessions_[s_idx];
    WelcomeBody w;
    w.model = s.header.model;
    w.include_deletions = s.header.include_deletions;
    w.stop_on_violation = s.header.stop_on_violation;
    w.shard_count = s.header.shard_count;
    w.session_id = s.id;
    try {
      conn.sock.send_frame(make_welcome(w));
    } catch (const TransportError&) {
      close_conn(conn_id);
      return;
    }
    conn.st = Conn::St::Idle;
  }

  void refuse_conn(std::size_t conn_id, const std::string& reason) {
    ++stats_.handshakes_refused;
    say("serve: refusing worker: " + reason);
    try {
      conns_[conn_id]->sock.send_frame(make_refuse(reason));
    } catch (const TransportError&) {
    }
    close_conn(conn_id);
  }

  void handle_submit(std::size_t conn_id, const SubmitBody& sub) {
    Conn& conn = *conns_[conn_id];
    if (sub.protocol_version != kSvcProtocolVersion) {
      refuse_conn(conn_id, "protocol version mismatch");
      return;
    }
    JobSpec job;
    job.fingerprint = sub.fingerprint;
    job.n = sub.n;
    job.m = sub.m;
    job.model = sub.model;
    job.include_deletions = sub.include_deletions;
    job.stop_on_violation = sub.stop_on_violation;
    job.shards = sub.shard_count;

    AcceptedBody accepted;
    const std::size_t existing = find_session(resolved_header(job));
    if (existing != kNoSession) {
      // Idempotent: resubmitting the same job names the same session.
      accepted.session_id = sessions_[existing].id;
      accepted.already_queued = true;
    } else if (submissions_closed()) {
      refuse_conn(conn_id, "submissions are closed");
      return;
    } else {
      std::size_t s_idx = kNoSession;
      try {
        s_idx = queue_job(job);
      } catch (const std::invalid_argument& e) {
        refuse_conn(conn_id, e.what());  // e.g. a stale journal without --resume
        return;
      }
      ++submitted_count_;
      accepted.session_id = sessions_[s_idx].id;
      accepted.already_queued = false;
      adopt_parked(s_idx);
    }
    try {
      conn.sock.send_frame(make_accepted(accepted));
    } catch (const TransportError&) {
      close_conn(conn_id);
    }
  }

  /// Welcomes every parked worker whose instance matches the newly queued
  /// session — parking is a promise, not a refusal.
  void adopt_parked(std::size_t s_idx) {
    if (sessions_[s_idx].st != Session::St::Active) return;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = *conns_[c];
      if (conn.st != Conn::St::Parked || !identity_matches(conn, sessions_[s_idx])) continue;
      if (conn.pinned_session != 0 && sessions_[s_idx].id != conn.pinned_session) continue;
      say("serve: adopting parked worker into session " + std::to_string(sessions_[s_idx].id));
      welcome(c, s_idx);
    }
  }

  [[nodiscard]] std::vector<JobSummary> summaries() const {
    std::vector<JobSummary> jobs;
    jobs.reserve(sessions_.size());
    for (const Session& s : sessions_) {
      JobSummary j;
      j.session_id = s.id;
      j.fingerprint = s.header.fingerprint;
      j.n = s.header.n;
      j.m = s.header.m;
      j.model = s.header.model;
      j.include_deletions = s.header.include_deletions;
      j.stop_on_violation = s.header.stop_on_violation;
      j.shard_count = s.header.shard_count;
      j.completed_ranges = static_cast<std::uint32_t>(s.completed_count);
      std::uint32_t quarantined = 0;
      for (const RangeState& r : s.ranges) {
        if (r.st == RangeState::St::Quarantined) ++quarantined;
      }
      j.quarantined_ranges = quarantined;
      j.state = s.st == Session::St::Active    ? JobSummary::State::Active
                : s.st == Session::St::Complete ? JobSummary::State::Complete
                                                : JobSummary::State::Refused;
      jobs.push_back(j);
    }
    return jobs;
  }

  /// Session whose run a result belongs to: the shard's own identity block
  /// names it (fingerprint + n + m + model + flags + shard_count), so
  /// routing needs no per-connection bookkeeping and late results from
  /// re-handshaken workers still land in the right fold.
  [[nodiscard]] std::size_t find_session_for_result(const ShardResult& r) const {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const JournalHeader& h = sessions_[i].header;
      if (h.fingerprint == r.fingerprint && h.n == r.n && h.m == r.m && h.model == r.model &&
          h.include_deletions == r.include_deletions &&
          h.stop_on_violation == r.stop_on_violation && h.shard_count == r.shard_count) {
        return i;
      }
    }
    return kNoSession;
  }

  /// Validates a decoded result against its session and the canonical
  /// split; any disagreement is indistinguishable from corruption and
  /// strikes.
  void accept_result(std::size_t conn_id, std::string_view payload) {
    const ShardResult r = shard_from_bytes(payload);  // throws on corruption
    const std::size_t s_idx = find_session_for_result(r);
    BNCG_REQUIRE(s_idx != kNoSession, "serve: result matches no queued session");
    Session& s = sessions_[s_idx];
    BNCG_REQUIRE(r.shard_index < s.ranges.size(),
                 "serve: result shard coordinates out of range");
    const std::size_t idx = r.shard_index;
    RangeState& range = s.ranges[idx];
    BNCG_REQUIRE(r.agent_lo == range.range.lo && r.agent_hi == range.range.hi,
                 "serve: result range disagrees with the canonical split");
    BNCG_REQUIRE(r.scanned == r.agent_hi - r.agent_lo ||
                     (s.header.stop_on_violation && r.best.has_value()),
                 "serve: incomplete scan in a result");

    Conn& conn = *conns_[conn_id];
    const bool mine = conn.st == Conn::St::Working && conn.session == s_idx && conn.range == idx;
    if (range.st == RangeState::St::Completed) {
      // Duplicate (double-send or a straggler finishing a re-dispatched
      // range someone else already delivered): first valid result won.
      ++stats_.duplicate_results;
      if (mine) release_conn_work(conn);
      return;
    }
    // Streaming sink: the shard goes to disk crash-safely NOW and the
    // in-memory copy dies with this scope — peak witness memory stays
    // O(one shard) per session, not O(n).
    s.sink->append(r);
    if (s.durable) ++stats_.journaled_ranges;
    range.st = RangeState::St::Completed;
    range.lease_conn = kNoConn;
    ++s.completed_count;
    if (mine) release_conn_work(conn);
    say("serve: session " + std::to_string(s.id) + " range " + std::to_string(idx) + " [" +
        std::to_string(r.agent_lo) + ", " + std::to_string(r.agent_hi) + ") completed (" +
        std::to_string(s.completed_count) + "/" + std::to_string(s.ranges.size()) + ")");
  }

  void release_conn_work(Conn& conn) {
    conn.st = Conn::St::Idle;
    conn.session = kNoSession;
    conn.range = kNoRange;
  }

  /// Whether this connection still holds the CURRENT lease of its
  /// assigned range. A stale holder (lease expired, range re-granted or
  /// quarantined) was already charged at expiry — charging it again on
  /// disconnect or corruption would double-strike one event.
  [[nodiscard]] bool holds_current_lease(std::size_t conn_id) const {
    const Conn& conn = *conns_[conn_id];
    if (conn.st != Conn::St::Working || conn.session == kNoSession || conn.range == kNoRange) {
      return false;
    }
    const RangeState& r = sessions_[conn.session].ranges[conn.range];
    return r.st == RangeState::St::Leased && r.lease_conn == conn_id;
  }

  void corrupt_strike(std::size_t conn_id, const std::string& why) {
    ++stats_.corrupt_results;
    say("serve: corrupt data from worker (" + why + ") — dropping connection");
    // Exactly one strike per event: the corruption already cost this
    // event its strike, so the range is failed only when this conn still
    // holds its current lease, and the close below never also counts as a
    // disconnect.
    if (holds_current_lease(conn_id)) {
      fail_once(conns_[conn_id]->session, conns_[conn_id]->range);
    }
    close_conn(conn_id);
  }

  void handle_close(std::size_t conn_id) {
    if (holds_current_lease(conn_id)) {
      ++stats_.disconnects;
      say("serve: worker disconnected mid-lease");
      fail_once(conns_[conn_id]->session, conns_[conn_id]->range);
    }
    close_conn(conn_id);
  }

  void expire_leases() {
    const Clock::time_point now = Clock::now();
    for (std::size_t s_idx = 0; s_idx < sessions_.size(); ++s_idx) {
      Session& s = sessions_[s_idx];
      if (s.st != Session::St::Active) continue;
      for (std::size_t i = 0; i < s.ranges.size(); ++i) {
        RangeState& r = s.ranges[i];
        if (r.st == RangeState::St::Leased && r.lease_deadline <= now) {
          ++stats_.expired_leases;
          say("serve: lease on session " + std::to_string(s.id) + " range " + std::to_string(i) +
              " expired — eligible for re-dispatch");
          fail_once(s_idx, i);
          // The straggler's connection stays open: its late result is
          // still welcome (first valid result wins).
        }
      }
    }
  }

  void fail_once(std::size_t s_idx, std::size_t idx) {
    Session& s = sessions_[s_idx];
    RangeState& r = s.ranges[idx];
    r.lease_conn = kNoConn;
    ++r.failures;
    if (r.failures > config_.max_retries) {
      r.st = RangeState::St::Quarantined;
      say("serve: session " + std::to_string(s.id) + " range " + std::to_string(idx) +
          " quarantined after " + std::to_string(r.failures) + " failures");
      return;
    }
    r.st = RangeState::St::Pending;
    r.eligible_at = Clock::now() + std::chrono::milliseconds(
                                       redispatch_delay_ms(config_.backoff_ms, r.failures));
  }

  void close_conn(std::size_t conn_id) {
    Conn& conn = *conns_[conn_id];
    conn.sock.close_fd();
    conn.inbuf.clear();
    conn.st = Conn::St::Closed;
    conn.session = kNoSession;
    conn.range = kNoRange;
  }

  MultiServeOutcome finish() {
    const Frame done = make_done();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c]->st == Conn::St::Closed) continue;
      try {
        conns_[c]->sock.send_frame(done);
      } catch (const TransportError&) {
      }
      close_conn(c);
    }
    MultiServeOutcome out;
    out.stats = stats_;
    bool all_complete = !sessions_.empty();
    for (Session& s : sessions_) {
      SessionOutcome so;
      so.session_id = s.id;
      so.header = s.header;
      so.resumed_ranges = s.resumed;
      if (s.completed_count == s.ranges.size()) {
        // Compaction streams the shard files back through ShardFold — the
        // certificate is byte-identical to the buffered merge.
        so.certificate = s.sink->compact();
        so.complete = true;
      } else {
        for (const RangeState& r : s.ranges) {
          if (r.st == RangeState::St::Completed) continue;
          so.quarantined.push_back({r.range, r.failures});
          so.agents_uncovered += r.range.hi - r.range.lo;
        }
      }
      all_complete &= so.complete;
      out.sessions.push_back(std::move(so));
    }
    say("serve: done complete=" + std::to_string(all_complete ? 1 : 0) +
        " ranges=" + std::to_string(total_ranges()) +
        " resumed=" + std::to_string(stats_.resumed_ranges) +
        " leases=" + std::to_string(stats_.leases_granted) +
        " redispatches=" + std::to_string(stats_.redispatches) +
        " expired=" + std::to_string(stats_.expired_leases) +
        " disconnects=" + std::to_string(stats_.disconnects) +
        " corrupt=" + std::to_string(stats_.corrupt_results) +
        " duplicates=" + std::to_string(stats_.duplicate_results) +
        " refused_handshakes=" + std::to_string(stats_.handshakes_refused) +
        " journaled=" + std::to_string(stats_.journaled_ranges) +
        " sessions=" + std::to_string(stats_.sessions_queued) +
        " sessions_completed=" + std::to_string(stats_.sessions_completed) +
        " sessions_refused=" + std::to_string(stats_.sessions_refused) +
        " parked=" + std::to_string(stats_.workers_parked));
    return out;
  }

  const std::vector<JobSpec>& jobs_;
  const MultiServeConfig& config_;
  std::ostream* log_;

  std::vector<Session> sessions_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_session_id_ = 1;
  std::size_t submitted_count_ = 0;
  ServeStats stats_;
};

}  // namespace

std::uint64_t redispatch_delay_ms(std::uint64_t backoff_ms, std::uint32_t failures) {
  const std::uint32_t shift = failures <= 1 ? 0 : std::min<std::uint32_t>(failures - 1, 6);
  // Saturate instead of shifting into the void: backoff_ms << shift can
  // wrap uint64 for operator-sized --backoff-ms, and a wrapped delay is a
  // zero or past deadline — the opposite of backing off.
  if (backoff_ms >= (kMaxRedispatchDelayMs >> shift)) return kMaxRedispatchDelayMs;
  return backoff_ms << shift;
}

MultiServeOutcome serve_jobs(const std::vector<JobSpec>& jobs, const MultiServeConfig& config,
                             std::ostream* log) {
  BNCG_REQUIRE(!config.address.empty(), "serve: missing listen address");
  BNCG_REQUIRE(config.lease_ms >= 1, "serve: lease must be positive");
  BNCG_REQUIRE(config.backoff_ms >= 1, "serve: backoff must be positive");
  BNCG_REQUIRE(!config.resume || !config.journal_root.empty(),
               "serve: --resume requires a journal directory");
  Dispatcher dispatcher(jobs, config, log);
  return dispatcher.run();
}

}  // namespace bncg::svc
