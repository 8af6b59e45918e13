#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "svc/worker.hpp"

namespace perfbench {

namespace {

// Seed-stream separation: the torus relabel draws from its own stream so
// that it never correlates with a G(n, m) draw of the same seed.
constexpr std::uint64_t kRelabelStream = 0x7e1abe1ULL;

void run_library_worker(const Graph& g, const std::string& address, unsigned /*index*/,
                        void* /*context*/) {
  bncg::svc::ConnectConfig config;
  config.address = address;
  config.resources = worker_resources();
  // The dispatcher thread starts at the same moment; poll its socket at
  // 1 ms, 2 ms, … instead of the 100 ms default first backoff.
  config.connect_backoff_ms = 1;
  config.connect_retries = 12;
  const bncg::svc::WorkerReport report = bncg::svc::run_connect_worker(g, config);
  if (report.refused) throw std::runtime_error("worker refused: " + report.refuse_reason);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"gnm-sum", false, 1024, UsageCost::Sum, false, Path::InProcess},
      {"torus-max", true, 20, UsageCost::Max, true, Path::InProcess},
      {"torus-max-service", true, 26, UsageCost::Max, true, Path::Service},
  };
  return all;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Graph generate_graph(const WorkloadSpec& spec, std::uint64_t seed, Vertex size) {
  if (size == 0) size = spec.size;
  if (!spec.torus) {
    bncg::Xoshiro256ss rng(seed);
    return bncg::random_connected_gnm(size, 2 * static_cast<std::size_t>(size), rng);
  }
  const bncg::DiagonalTorus torus = bncg::rotated_torus(size);
  const Graph& native = torus.graph();
  const Vertex n = native.num_vertices();
  std::vector<Vertex> label(n);
  std::iota(label.begin(), label.end(), Vertex{0});
  bncg::Xoshiro256ss rng(seed ^ kRelabelStream);
  rng.shuffle(label);
  Graph g(n);
  for (Vertex v = 0; v < n; ++v) {
    for (const Vertex w : native.neighbors(v)) {
      if (v < w) g.add_edge(label[v], label[w]);
    }
  }
  return g;
}

std::string edge_list_text(const Graph& g) {
  std::ostringstream out;
  bncg::write_edge_list(out, g);
  return out.str();
}

bncg::RunConfig run_config(const WorkloadSpec& spec) {
  bncg::RunConfig run;
  run.model = spec.model;
  run.include_deletions = spec.include_deletions;
  return run;
}

bncg::ResourceConfig worker_resources() {
  bncg::ResourceConfig resources;
  resources.mem_budget = kWorkerMemBudget;
  return resources;
}

bncg::ShardedCertifyConfig reference_config(const WorkloadSpec& spec, bool cross_check) {
  bncg::ShardedCertifyConfig config;
  if (spec.path == Path::Service) config.resources = worker_resources();
  if (cross_check) {
    config.shards = 7;
    config.resources.width = bncg::WidthPolicy::ForceU16;
  }
  return config;
}

bncg::svc::JobSpec job_spec(const WorkloadSpec& spec, const Graph& g, std::uint64_t fingerprint) {
  bncg::svc::JobSpec job;
  job.fingerprint = fingerprint;
  job.n = g.num_vertices();
  job.m = g.num_edges();
  job.model = spec.model;
  job.include_deletions = spec.include_deletions;
  job.shards = std::min<std::size_t>(kServiceShards, g.num_vertices());
  return job;
}

namespace {

std::string block(const WorkloadSpec& spec, std::uint64_t fingerprint, Vertex n, std::uint64_t m,
                  bool equilibrium, Vertex agents_scanned, std::uint64_t moves,
                  const std::optional<bncg::Deviation>& witness) {
  std::ostringstream out;
  out << "instance n=" << n << " m=" << m << " fingerprint=0x" << std::hex << fingerprint
      << std::dec << "\n"
      << "run model=" << (spec.model == UsageCost::Sum ? "sum" : "max")
      << " include_deletions=" << (spec.include_deletions ? 1 : 0) << " stop_on_violation=0\n"
      << "verdict=" << (equilibrium ? "EQUILIBRIUM" : "VIOLATED")
      << " agents_scanned=" << agents_scanned << " moves_checked=" << moves << "\n";
  if (witness) {
    out << "witness agent=" << witness->swap.v << " remove=" << witness->swap.remove_w
        << " add=" << witness->swap.add_w << " cost_before=" << witness->cost_before
        << " cost_after=" << witness->cost_after << " kind="
        << (witness->kind == bncg::Deviation::Kind::ImprovingSwap ? "improving-swap"
                                                                  : "non-critical-delete")
        << "\n";
  } else {
    out << "witness none\n";
  }
  return out.str();
}

}  // namespace

std::string certificate_block(const WorkloadSpec& spec, std::uint64_t fingerprint, Vertex n,
                              std::uint64_t m, const bncg::ShardedCertificate& cert) {
  return block(spec, fingerprint, n, m, cert.certificate.is_equilibrium, cert.agents_scanned,
               cert.certificate.moves_checked, cert.certificate.witness);
}

std::string certificate_block(const WorkloadSpec& spec, std::uint64_t fingerprint, Vertex n,
                              std::uint64_t m, const bncg::EquilibriumCertificate& cert) {
  return block(spec, fingerprint, n, m, cert.is_equilibrium, n, cert.moves_checked,
               cert.witness);
}

std::map<std::uint64_t, std::string> load_references(const std::string& dir,
                                                     std::string_view workload) {
  // Format: "== seed <n> ==" header lines, each followed by that seed's
  // certificate block.
  std::map<std::uint64_t, std::string> refs;
  std::ifstream in(dir + "/" + std::string(workload) + ".cert");
  if (!in) return refs;
  std::string line;
  std::optional<std::uint64_t> seed;
  while (std::getline(in, line)) {
    if (line.rfind("== seed ", 0) == 0) {
      seed = std::stoull(line.substr(8));
      refs[*seed];
    } else if (seed) {
      refs[*seed] += line + "\n";
    }
  }
  return refs;
}

ServiceRun serve_once(const Graph& g, const bncg::svc::JobSpec& job, const std::string& workdir,
                      WorkerFn worker, void* context) {
  namespace fs = std::filesystem;
  if (worker == nullptr) worker = run_library_worker;
  if (fs::exists(workdir)) throw std::runtime_error("service work dir exists: " + workdir);
  fs::create_directories(workdir);
  bncg::svc::MultiServeConfig config;
  config.address = "unix:" + workdir + "/dispatcher.sock";
  config.journal_root = workdir + "/journal";

  ServiceRun run;
  std::optional<bncg::svc::MultiServeOutcome> outcome;
  std::vector<std::exception_ptr> errors(kServiceWorkers + 1);
  std::thread dispatcher([&] {
    try {
      run.started_s = now_s();
      outcome = bncg::svc::serve_jobs({job}, config);
      run.certify_s = now_s() - run.started_s;
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(kServiceWorkers);
  for (unsigned i = 0; i < kServiceWorkers; ++i) {
    workers.emplace_back([&, i] {
      try {
        worker(g, config.address, i, context);
      } catch (...) {
        errors[i + 1] = std::current_exception();
      }
    });
  }
  dispatcher.join();
  for (std::thread& t : workers) t.join();
  fs::remove_all(workdir);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  run.stats = outcome->stats;
  if (outcome->sessions.size() == 1 && outcome->sessions[0].complete) {
    run.certificate = outcome->sessions[0].certificate;
  }
  return run;
}

std::optional<bncg::ShardedCertificate> certify_path(const WorkloadSpec& spec,
                                                     const bncg::Instance& inst,
                                                     const bncg::svc::JobSpec& job,
                                                     const std::string& workdir,
                                                     double* seconds) {
  if (spec.path == Path::Service) {
    ServiceRun run = serve_once(inst.graph(), job, workdir);
    if (seconds != nullptr) *seconds = run.certify_s;
    return std::move(run.certificate);
  }
  const bncg::RunConfig run = run_config(spec);
  const double t0 = now_s();
  bncg::ShardedCertificate cert = inst.certify(run);
  if (seconds != nullptr) *seconds = now_s() - t0;
  return cert;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset VmHWM through /proc/self/clear_refs");
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t index = std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size());
  return v[index - 1];
}

}  // namespace perfbench
