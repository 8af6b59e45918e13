// Workloads, inputs, certificate blocks and the certification paths the
// benchmark times. Everything here calls the library's public API only.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bncg.hpp"
#include "svc/dispatcher.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using bncg::Graph;
using bncg::UsageCost;
using bncg::Vertex;

/// How a workload reaches its certificate.
enum class Path { InProcess, Service };

struct WorkloadSpec {
  std::string_view name;
  bool torus = false;  ///< rotated torus (seeded relabel) instead of G(n, 2n)
  Vertex size = 0;     ///< n for G(n, 2n), k for the torus (n = 2k²)
  UsageCost model = UsageCost::Sum;
  bool include_deletions = false;
  Path path = Path::InProcess;
};

/// The service topology of the torus-max-service workload: one dispatcher
/// thread plus kServiceWorkers connected-worker threads, each with a
/// kWorkerMemBudget distance-row budget.
inline constexpr unsigned kServiceWorkers = 3;
inline constexpr std::size_t kServiceShards = 48;
inline constexpr std::uint64_t kWorkerMemBudget = std::uint64_t{1} << 20;

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// The workload's graph for `seed` at `size` (its own size when 0): the
/// seeded G(n, 2n), or the rotated torus with vertex labels permuted by a
/// seeded shuffle.
[[nodiscard]] Graph generate_graph(const WorkloadSpec& spec, std::uint64_t seed, Vertex size = 0);

/// Edge-list text of `g` (graph/io.hpp format) — the only thing the
/// library is handed; set-up parses it back.
[[nodiscard]] std::string edge_list_text(const Graph& g);

/// In-process run configuration of a workload (default resources).
[[nodiscard]] bncg::RunConfig run_config(const WorkloadSpec& spec);
/// Engine resources of one service worker.
[[nodiscard]] bncg::ResourceConfig worker_resources();
/// In-process configuration the reference certificate comes from: the
/// workload's own resources (the worker's budget for the service
/// workload), or with `cross_check` the same at u16 width over 7 shards —
/// another storage width and partition that must give the same bytes.
[[nodiscard]] bncg::ShardedCertifyConfig reference_config(const WorkloadSpec& spec,
                                                          bool cross_check);
/// Service job of a parsed instance.
[[nodiscard]] bncg::svc::JobSpec job_spec(const WorkloadSpec& spec, const Graph& g,
                                          std::uint64_t fingerprint);

/// The byte-stable certificate block (the `bncg_certify` stdout format):
/// instance identity, run, verdict/agents_scanned/moves_checked, witness.
[[nodiscard]] std::string certificate_block(const WorkloadSpec& spec, std::uint64_t fingerprint,
                                            Vertex n, std::uint64_t m,
                                            const bncg::ShardedCertificate& cert);
/// The same block from a naive-oracle certificate (agents_scanned = n).
[[nodiscard]] std::string certificate_block(const WorkloadSpec& spec, std::uint64_t fingerprint,
                                            Vertex n, std::uint64_t m,
                                            const bncg::EquilibriumCertificate& cert);

/// Pinned reference blocks of one workload, keyed by seed
/// (perfbench/reference/<workload>.cert).
[[nodiscard]] std::map<std::uint64_t, std::string> load_references(const std::string& dir,
                                                                   std::string_view workload);

/// One served certification.
struct ServiceRun {
  std::optional<bncg::ShardedCertificate> certificate;  ///< empty when refused
  bncg::svc::ServeStats stats;
  double started_s = 0;  ///< now_s() at serve_jobs entry
  double certify_s = 0;  ///< serve_jobs entry to its SessionOutcome
};

/// Connects `address` as a worker, serving leases until Done. The
/// untraced benchmark uses bncg::svc::run_connect_worker; the traced run
/// passes its instrumented twin.
using WorkerFn = void (*)(const Graph& g, const std::string& address, unsigned index,
                          void* context);

/// Serves `job` on a Unix socket under `workdir` (which must not exist),
/// journaling into it, with kServiceWorkers worker threads running
/// `worker` (nullptr = run_connect_worker). Removes `workdir` afterwards.
[[nodiscard]] ServiceRun serve_once(const Graph& g, const bncg::svc::JobSpec& job,
                                    const std::string& workdir, WorkerFn worker = nullptr,
                                    void* context = nullptr);

/// Certifies `g` along the workload's path (in-process or served).
[[nodiscard]] std::optional<bncg::ShardedCertificate> certify_path(
    const WorkloadSpec& spec, const bncg::Instance& inst, const bncg::svc::JobSpec& job,
    const std::string& workdir, double* seconds = nullptr);

/// Peak resident set of this process (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mib();
/// Resets VmHWM to the current resident set (/proc/self/clear_refs), so
/// the peak counts only what runs after the call.
void reset_peak_rss();

/// Monotonic seconds.
[[nodiscard]] double now_s();

/// Median and nearest-rank percentile of a sample (copies, sorts).
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double percentile(std::vector<double> v, double p);

}  // namespace perfbench
