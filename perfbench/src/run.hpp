// One benchmark run: arguments, shared preparation, and the result line.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string refs_dir;    ///< pinned certificate blocks
  std::string workdir;     ///< scratch directory (sockets, journals, traces)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// A run's outcome; it is correct when no certification failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Counts one certification against the reference block.
  void check(const std::optional<std::string>& block, const std::string& reference) {
    ++attempted;
    if (!block || *block != reference) ++failed;
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Input, reference and set-up of one run.
struct Prepared {
  std::string edge_list;       ///< the generated input, as text
  Graph parsed;                ///< the instance as set-up parsed it
  std::uint64_t fingerprint = 0;
  bncg::svc::JobSpec job;
  std::string reference;       ///< certificate block every run must match
  bool pinned = false;         ///< reference from perfbench/reference
  std::vector<double> setup_s;        ///< per set-up repetition
  std::vector<double> read_s;         ///< read_edge_list part
  std::vector<double> fingerprint_s;  ///< graph_fingerprint part
};

/// Generates the seeded input, times kSetupReps set-ups (parse the edge
/// list, fingerprint, build the job) and loads the pinned reference block
/// when the seed has one. With a tracer, every set-up call is a span
/// under `parent`.
[[nodiscard]] Prepared prepare(const RunArgs& args, Tracer* tracer = nullptr, int parent = -1);

/// Completes prep.reference: for an unpinned seed, the cross-check
/// certificate (reference_config with cross_check) computed here.
void resolve_reference(const RunArgs& args, Prepared& prep);

/// Appends `reps` timed set-ups (parse the edge list, fingerprint, build
/// the job) to prep's samples; the last one's outputs stay in `prep`.
void time_setup(const RunArgs& args, Prepared& prep, int reps, Tracer* tracer, int parent);

/// The certificate block of `cert` for the prepared instance, or nothing
/// when the run was refused.
[[nodiscard]] std::optional<std::string> block_of(const RunArgs& args, const Prepared& prep,
                                                  const std::optional<bncg::ShardedCertificate>& cert);

/// Per-lease samples of one instrumented service worker.
struct WorkerSamples {
  std::vector<double> lease_wait_s;
  std::vector<double> range_s;
  std::vector<double> encode_s;
  std::vector<std::string> frames;  ///< encoded result frames
};

/// One certification decomposed into spans: in-process, the engine build,
/// one certify_agent_range span per shard on the pool, and the merge; on
/// the service, serve_jobs with instrumented workers (lease wait, range
/// scan, wire encode, send).
struct TracedCertify {
  std::optional<bncg::ShardedCertificate> certificate;
  double seconds = 0;            ///< wall time of the certification
  double covered_s = 0;          ///< part of it the descendant spans cover
  std::vector<double> range_s;   ///< per shard (in-process) or lease (service)
  bncg::svc::ServeStats stats;   ///< service only
  std::vector<WorkerSamples> workers;  ///< service only
};

[[nodiscard]] TracedCertify traced_certify(const WorkloadSpec& spec, const Graph& g,
                                           const bncg::svc::JobSpec& job,
                                           const std::string& workdir, Tracer& tr, int parent);

[[nodiscard]] Result run_untraced(const RunArgs& args);
[[nodiscard]] Result run_traced(const RunArgs& args);
/// Differential checks of every measured path; 0 when all pass.
[[nodiscard]] int run_selftest(const RunArgs& args);

}  // namespace perfbench
