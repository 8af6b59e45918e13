// Cross-process certification CLI — the worker/merge pipeline over the
// sharded certifier (DESIGN.md §11) and the fault-tolerant certification
// service (DESIGN.md §12).
//
// Modes:
//   gen          — write a seeded random connected G(n, m) instance as an
//                  edge list, so fan-out runs are reproducible from a seed
//                  alone.
//   worker       — file mode: certify agents [lo, hi) of a graph file and
//                  write one serialized ShardResult (binary or JSON wire
//                  format, crash-safe tmp+rename). With --connect, dial a
//                  dispatcher instead: handshake with the instance
//                  fingerprint, receive leases, stream results back.
//   chaos-worker — a connected worker with seeded fault injection (crash
//                  mid-range, hang past the lease, bit-flipped frames,
//                  double-sends, slow) for the fault-injection harness.
//   serve        — long-lived dispatcher: leases agent ranges to connected
//                  workers with deadlines, re-dispatches stragglers,
//                  quarantines ranges that exhaust their retry budget
//                  (refusing rather than guessing), journals completed
//                  ranges crash-safely, and folds the final certificate
//                  through the same merge_shard_results as everything
//                  else. --resume continues a killed run from the journal.
//                  With repeated --jobs specs (and/or --accept-submissions)
//                  one dispatcher multiplexes several certification
//                  sessions concurrently, each with its own journal
//                  directory under --journal and its own certificate block.
//   submit       — queue one more job on a running `serve
//                  --accept-submissions` dispatcher (idempotent: an
//                  identical job returns the existing session id).
//   status       — print a running dispatcher's session table, one line
//                  per session.
//   merge        — fold shard files back into the full certificate.
//                  Refuses mismatched instances/run parameters
//                  (fingerprint guard) and incomplete agent coverage; the
//                  fold order is shard-index order, so the printed
//                  certificate is bit-identical to the single-process
//                  certifiers.
//   certify      — single-process reference: run the in-process sharded
//                  certifier and print the identical certificate block,
//                  which is what scripts/certify_fanout.sh and
//                  scripts/certify_chaos.sh diff a merged/served run
//                  against.
//
// The certificate block (stdout) is deliberately byte-stable across
// serve/merge/certify so `diff` is the parity check; telemetry (timings,
// widths, shard counts, dispatcher stats) goes to stderr.
//
// Exit codes (tested by scripts/certify_exit_codes.sh):
//   0  certificate emitted (either verdict)
//   1  usage or environment error (bad flags, unreadable or malformed
//      files, a disconnected graph)
//   2  coverage refusal: serve quarantined ranges and withheld the verdict
//   3  wire/merge/handshake guard refusal (corrupt or mismatched data)
//   4  transport failure after bounded retries
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/certify_sharded.hpp"
#include "core/certify_wire.hpp"
#include "core/dist_provider.hpp"
#include "core/swap.hpp"
#include "core/swap_engine.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/connectivity.hpp"
#include "graph/io.hpp"
#include "svc/dispatcher.hpp"
#include "svc/net.hpp"
#include "svc/worker.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace bncg;

[[noreturn]] void usage(const std::string& detail = "", int exit_code = 1) {
  if (!detail.empty()) std::cerr << "bncg_certify: " << detail << "\n";
  (exit_code == 0 ? std::cout : std::cerr)
      << "usage:\n"
         "  bncg_certify gen --n N [--m M] [--seed S] --out FILE\n"
         "  bncg_certify gen --family torus --k K [--perturb] --out FILE\n"
         "  bncg_certify worker --graph FILE --range LO:HI --shard-index I --shard-count K\n"
         "               --out FILE [--model sum|max] [--include-deletions]\n"
         "               [--stop-on-violation] [--width auto|u8|u16] [--mem-budget B]\n"
         "               [--format binary|json]\n"
         "  bncg_certify worker --graph FILE --connect ADDR [--width auto|u8|u16]\n"
         "               [--mem-budget B] [--connect-retries N] [--connect-backoff-ms N]\n"
         "  bncg_certify chaos-worker --graph FILE --connect ADDR\n"
         "               --chaos crash|hang|corrupt|corrupt-all|duplicate|slow\n"
         "               [--chaos-seed S] [--chaos-delay-ms N] [--width auto|u8|u16]\n"
         "               [--connect-retries N] [--connect-backoff-ms N]\n"
         "  bncg_certify serve --graph FILE --listen ADDR [--shards K] [--model sum|max]\n"
         "               [--include-deletions] [--stop-on-violation] [--lease-ms N]\n"
         "               [--max-retries N] [--backoff-ms N] [--journal DIR] [--resume]\n"
         "  bncg_certify serve --listen ADDR --jobs SPEC [--jobs SPEC ...]\n"
         "               [--accept-submissions N] [--certs-dir DIR] [--shards K]\n"
         "               [--model sum|max] [--include-deletions] [--stop-on-violation]\n"
         "               [--lease-ms N] [--max-retries N] [--backoff-ms N]\n"
         "               [--journal DIR] [--resume]\n"
         "               SPEC = FILE[,model=sum|max][,shards=K][,include-deletions]\n"
         "                      [,stop-on-violation]\n"
         "  bncg_certify submit --connect ADDR --graph FILE [--model sum|max]\n"
         "               [--include-deletions] [--stop-on-violation] [--shards K]\n"
         "               [--connect-retries N] [--connect-backoff-ms N]\n"
         "  bncg_certify status --connect ADDR [--connect-retries N]\n"
         "               [--connect-backoff-ms N]\n"
         "  bncg_certify merge SHARD_FILE...\n"
         "  bncg_certify certify --graph FILE [--model sum|max] [--include-deletions]\n"
         "               [--stop-on-violation] [--width auto|u8|u16] [--mem-budget B]\n"
         "               [--shards N]\n"
         "addresses: unix:/path/to.sock or tcp:HOST:PORT (IPv4 literal)\n"
         "--mem-budget B caps distance storage for the whole process (bytes,\n"
         "  with optional K/M/G binary suffix), split evenly across the\n"
         "  BNCG_THREADS engine lanes; scans whose dense rows do not fit their\n"
         "  lane's share run against the blocked row cache. BNCG_MEM_BUDGET\n"
         "  sets the same cap when the flag is absent.\n"
         "exit codes: 0 certificate emitted (either verdict); 1 usage or\n"
         "  environment error, or a disconnected graph (the game is defined on\n"
         "  connected graphs); 2 coverage refusal (serve quarantined ranges and\n"
         "  withheld the verdict); 3 wire/merge/handshake guard refusal;\n"
         "  4 transport failure after bounded retries\n";
  std::exit(exit_code);
}

/// Tiny argv reader: flags are matched exactly, values must follow.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) argv_.emplace_back(argv[i]);
  }

  [[nodiscard]] bool flag(const std::string& name) {
    for (std::size_t i = 0; i < argv_.size(); ++i) {
      if (argv_[i] == name) {
        consumed_[i] = true;
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::optional<std::string> value(const std::string& name) {
    for (std::size_t i = 0; i < argv_.size(); ++i) {
      if (argv_[i] == name) {
        if (i + 1 >= argv_.size()) usage("missing value for " + name);
        consumed_[i] = consumed_[i + 1] = true;
        return argv_[i + 1];
      }
    }
    return std::nullopt;
  }

  /// Every occurrence of a repeatable value flag, in argv order.
  [[nodiscard]] std::vector<std::string> values(const std::string& name) {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < argv_.size(); ++i) {
      if (argv_[i] == name) {
        if (i + 1 >= argv_.size()) usage("missing value for " + name);
        consumed_[i] = consumed_[i + 1] = true;
        out.push_back(argv_[i + 1]);
      }
    }
    return out;
  }

  [[nodiscard]] std::string required(const std::string& name) {
    const std::optional<std::string> v = value(name);
    if (!v) usage("missing required " + name);
    return *v;
  }

  /// Everything not consumed by flag()/value() — the positional operands.
  [[nodiscard]] std::vector<std::string> positionals() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < argv_.size(); ++i) {
      if (consumed_.count(i) == 0) out.push_back(argv_[i]);
    }
    return out;
  }

 private:
  std::vector<std::string> argv_;
  std::map<std::size_t, bool> consumed_;
};

[[nodiscard]] std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  // Digits only: stoull would silently wrap "-1" to a huge unsigned value
  // and skip leading whitespace — both are usage errors here.
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    usage("bad " + what + ": " + text);
  }
  try {
    return std::stoull(text, nullptr, 10);
  } catch (const std::exception&) {
    usage("bad " + what + ": " + text);
  }
}

/// 32-bit operands (vertex counts, ranges, shard coordinates) reject
/// out-of-range input as a usage error instead of silently truncating.
[[nodiscard]] std::uint32_t parse_u32(const std::string& text, const std::string& what) {
  const std::uint64_t v = parse_u64(text, what);
  if (v > 0xFFFFFFFFull) usage(what + " out of range: " + text);
  return static_cast<std::uint32_t>(v);
}

[[nodiscard]] UsageCost parse_model(const std::string& text) {
  if (text == "sum") return UsageCost::Sum;
  if (text == "max") return UsageCost::Max;
  usage("bad --model: " + text);
}

[[nodiscard]] WidthPolicy parse_width(const std::string& text) {
  if (text == "auto") return WidthPolicy::Auto;
  if (text == "u8") return WidthPolicy::ForceU8;
  if (text == "u16") return WidthPolicy::ForceU16;
  usage("bad --width: " + text);
}

/// Consumes an optional --mem-budget flag into a ResourceConfig byte cap.
/// Parse failures are usage errors (exit 1), mirroring the numeric flags.
[[nodiscard]] std::uint64_t parse_mem_budget(Args& args) {
  const std::optional<std::string> text = args.value("--mem-budget");
  if (!text) return 0;
  try {
    return parse_mem_bytes(*text);
  } catch (const std::invalid_argument& e) {
    usage(std::string("bad --mem-budget: ") + e.what());
  }
}

[[nodiscard]] svc::ChaosConfig::Mode parse_chaos(const std::string& text) {
  if (text == "crash") return svc::ChaosConfig::Mode::Crash;
  if (text == "hang") return svc::ChaosConfig::Mode::Hang;
  if (text == "corrupt") return svc::ChaosConfig::Mode::Corrupt;
  if (text == "corrupt-all") return svc::ChaosConfig::Mode::CorruptAll;
  if (text == "duplicate") return svc::ChaosConfig::Mode::Duplicate;
  if (text == "slow") return svc::ChaosConfig::Mode::Slow;
  usage("bad --chaos: " + text);
}

/// Rejects any argv entry no mode handler asked about — a misspelled flag
/// must be a usage error, never silently ignored (this tool is a parity
/// oracle; a dropped --include-deletions would certify the wrong clause).
void reject_unknown(const Args& args) {
  const std::vector<std::string> leftover = args.positionals();
  if (!leftover.empty()) usage("unknown argument: " + leftover.front());
}

/// Reads a graph to certify. The game is defined on connected graphs, so a
/// disconnected one is refused here, before any scan, as an input error
/// (exit 1) — never certified.
[[nodiscard]] Graph load_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  Graph g;
  try {
    g = read_edge_list(in);
  } catch (const std::invalid_argument& e) {
    // Re-typed so a malformed *graph* file is reported as an environment
    // failure (exit 1), keeping exit 3 scoped to wire/merge refusals.
    throw std::runtime_error("bad graph file " + path + ": " + e.what());
  }
  const Vertex components = connected_components(g).count;
  if (components > 1) {
    throw std::runtime_error("disconnected graph " + path + ": " + std::to_string(components) +
                             " components; the game is defined on connected graphs");
  }
  return g;
}

/// The byte-stable certificate block `serve`, `merge`, and `certify` all
/// print; scripts/certify_fanout.sh and scripts/certify_chaos.sh diff
/// these verbatim.
void write_certificate(std::ostream& out, std::uint64_t fingerprint, Vertex n, std::uint64_t m,
                       UsageCost model, bool include_deletions, bool stop_on_violation,
                       const ShardedCertificate& cert) {
  std::ostringstream fp;
  fp << std::hex << fingerprint;
  out << "instance n=" << n << " m=" << m << " fingerprint=0x" << fp.str() << "\n"
      << "run model=" << (model == UsageCost::Sum ? "sum" : "max")
      << " include_deletions=" << (include_deletions ? 1 : 0)
      << " stop_on_violation=" << (stop_on_violation ? 1 : 0) << "\n"
      << "verdict=" << (cert.certificate.is_equilibrium ? "EQUILIBRIUM" : "VIOLATED")
      << " agents_scanned=" << cert.agents_scanned
      << " moves_checked=" << cert.certificate.moves_checked << "\n";
  if (cert.certificate.witness) {
    const Deviation& w = *cert.certificate.witness;
    out << "witness agent=" << w.swap.v << " remove=" << w.swap.remove_w
        << " add=" << w.swap.add_w << " cost_before=" << w.cost_before
        << " cost_after=" << w.cost_after << " kind="
        << (w.kind == Deviation::Kind::ImprovingSwap ? "improving-swap"
                                                     : "non-critical-delete")
        << "\n";
  } else {
    out << "witness none\n";
  }
}

void print_certificate(std::uint64_t fingerprint, Vertex n, std::uint64_t m, UsageCost model,
                       bool include_deletions, bool stop_on_violation,
                       const ShardedCertificate& cert) {
  write_certificate(std::cout, fingerprint, n, m, model, include_deletions, stop_on_violation,
                    cert);
}

int run_gen(Args& args) {
  const std::string family = args.value("--family").value_or("gnm");
  Graph g{0};
  if (family == "torus") {
    // The paper's Figure 4 rotated torus (gen/paper.hpp): n = 2k², degree 4,
    // a max-model swap equilibrium of eccentricity k at every vertex — the
    // budget smoke's large structured instance (scripts/certify_budget.sh).
    const Vertex k = parse_u32(args.required("--k"), "--k");
    if (k < 2) usage("--k must be >= 2");
    const DiagonalTorus torus = rotated_torus(k);
    g = torus.graph();
    if (args.flag("--perturb")) {
      // Break the equilibrium at a known site: rewire agent 0's first torus
      // edge to the antipode (k, k). Certifying the perturbed instance with
      // --stop-on-violation finds a witness near agent 0 instead of running
      // the full n-agent sweep — the budget smoke's bounded REFUTED leg.
      const Vertex w = g.neighbors(0).front();
      const Vertex y = torus.id({k, k});
      apply_swap(g, EdgeSwap{0, w, y});
    }
  } else if (family == "gnm") {
    const Vertex n = parse_u32(args.required("--n"), "--n");
    const std::uint64_t m_default = 2ull * n;
    const std::uint64_t m =
        args.value("--m") ? parse_u64(*args.value("--m"), "--m") : m_default;
    const std::uint64_t seed =
        args.value("--seed") ? parse_u64(*args.value("--seed"), "--seed") : 1;
    Xoshiro256ss rng(seed);
    g = random_connected_gnm(n, static_cast<std::size_t>(m), rng);
  } else {
    usage("bad --family: " + family);
  }
  const std::string out_path = args.required("--out");
  reject_unknown(args);

  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot open for writing: " + out_path);
  write_edge_list(out, g);
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + out_path);
  std::ostringstream fp;
  fp << std::hex << graph_fingerprint(g);
  std::cerr << "gen: wrote n=" << g.num_vertices() << " m=" << g.num_edges()
            << " fingerprint=0x" << fp.str() << " to " << out_path << "\n";
  return 0;
}

/// Shared by `worker --connect` and `chaos-worker`.
int run_connected(Args& args, svc::ChaosConfig chaos) {
  svc::ConnectConfig config;
  config.address = args.required("--connect");
  const std::string graph_path = args.required("--graph");
  config.resources.width = parse_width(args.value("--width").value_or("auto"));
  config.resources.mem_budget = parse_mem_budget(args);
  if (args.value("--connect-retries")) {
    config.connect_retries = parse_u32(*args.value("--connect-retries"), "--connect-retries");
  }
  if (args.value("--connect-backoff-ms")) {
    config.connect_backoff_ms =
        parse_u64(*args.value("--connect-backoff-ms"), "--connect-backoff-ms");
  }
  config.chaos = chaos;
  reject_unknown(args);

  const Graph g = load_graph(graph_path);
  Timer timer;
  const svc::WorkerReport report = svc::run_connect_worker(g, config, &std::cerr);
  if (report.refused) {
    // Same taxonomy slot as a wire-guard rejection: the dispatcher judged
    // this worker's instance/protocol wrong.
    throw std::invalid_argument("dispatcher refused handshake: " + report.refuse_reason);
  }
  std::cerr << "worker: connected session done — leases=" << report.leases_completed
            << " agents=" << report.agents_scanned << " " << timer.millis() << " ms\n";
  return 0;
}

int run_worker(Args& args) {
  if (args.value("--connect")) return run_connected(args, svc::ChaosConfig{});

  const std::string graph_path = args.required("--graph");
  const std::string range_text = args.required("--range");
  const std::size_t colon = range_text.find(':');
  if (colon == std::string::npos) usage("--range must be LO:HI");
  AgentRange range;
  range.lo = parse_u32(range_text.substr(0, colon), "--range lo");
  range.hi = parse_u32(range_text.substr(colon + 1), "--range hi");
  range.shard_index = parse_u32(args.required("--shard-index"), "--shard-index");
  range.shard_count = parse_u32(args.required("--shard-count"), "--shard-count");
  const std::string out_path = args.required("--out");
  const UsageCost model = parse_model(args.value("--model").value_or("sum"));
  const bool include_deletions = args.flag("--include-deletions");
  const bool stop_on_violation = args.flag("--stop-on-violation");
  ResourceConfig resources;
  resources.width = parse_width(args.value("--width").value_or("auto"));
  resources.mem_budget = parse_mem_budget(args);
  const std::string format_text = args.value("--format").value_or("binary");
  ShardWireFormat format;
  if (format_text == "binary") {
    format = ShardWireFormat::Binary;
  } else if (format_text == "json") {
    format = ShardWireFormat::Json;
  } else {
    usage("bad --format: " + format_text);
  }
  reject_unknown(args);

  const Graph g = load_graph(graph_path);
  // A range that does not fit the loaded instance is a usage error (exit
  // 1), not a guard refusal.
  if (range.lo > range.hi || range.hi > g.num_vertices()) {
    usage("--range " + range_text + " does not fit the instance (n=" +
          std::to_string(g.num_vertices()) + ")");
  }
  if (range.shard_index >= range.shard_count) usage("--shard-index must be < --shard-count");
  Timer timer;
  const SwapEngine engine(g, resources);
  const ShardResult shard =
      certify_agent_range(engine, range, model, include_deletions, stop_on_violation);
  write_shard_file(out_path, shard, format);
  std::cerr << "worker: shard " << shard.shard_index << "/" << shard.shard_count << " agents ["
            << shard.agent_lo << ", " << shard.agent_hi << ") scanned=" << shard.scanned
            << " moves=" << shard.moves << " width=" << dist_width_name(shard.width)
            << " fallbacks=" << shard.width_fallbacks << " "
            << (shard.best ? "violation" : "clean") << " " << timer.millis() << " ms -> "
            << out_path << "\n";
  return 0;
}

int run_chaos_worker(Args& args) {
  svc::ChaosConfig chaos;
  chaos.mode = parse_chaos(args.required("--chaos"));
  if (args.value("--chaos-seed")) {
    chaos.seed = parse_u64(*args.value("--chaos-seed"), "--chaos-seed");
  }
  if (args.value("--chaos-delay-ms")) {
    chaos.delay_ms = parse_u64(*args.value("--chaos-delay-ms"), "--chaos-delay-ms");
  }
  return run_connected(args, chaos);
}

/// `job` keyed to the instance in `path`: its fingerprint, n and m.
[[nodiscard]] svc::JobSpec job_for_graph(const std::string& path, svc::JobSpec job) {
  const Graph g = load_graph(path);
  job.fingerprint = graph_fingerprint(g);
  job.n = g.num_vertices();
  job.m = g.num_edges();
  return job;
}

/// One `--jobs` spec: FILE[,model=sum|max][,shards=K][,include-deletions]
/// [,stop-on-violation]. Omitted keys inherit the serve-level defaults.
[[nodiscard]] svc::JobSpec parse_job_spec(const std::string& text, const svc::JobSpec& defaults) {
  svc::JobSpec job = defaults;
  std::size_t comma = text.find(',');
  const std::string path = text.substr(0, comma);
  if (path.empty()) usage("bad --jobs spec (empty graph file): " + text);
  while (comma != std::string::npos) {
    const std::size_t next = text.find(',', comma + 1);
    const std::string key = text.substr(comma + 1, next == std::string::npos
                                                       ? std::string::npos
                                                       : next - comma - 1);
    if (key.rfind("model=", 0) == 0) {
      job.model = parse_model(key.substr(6));
    } else if (key.rfind("shards=", 0) == 0) {
      job.shards = static_cast<std::size_t>(parse_u64(key.substr(7), "--jobs shards"));
    } else if (key == "include-deletions") {
      job.include_deletions = true;
    } else if (key == "stop-on-violation") {
      job.stop_on_violation = true;
    } else {
      usage("bad --jobs spec key \"" + key + "\" in: " + text);
    }
    comma = next;
  }
  return job_for_graph(path, job);
}

/// `serve --graph FILE` is the single-job form of `serve --jobs`: one job
/// keyed to FILE, the flat journal layout (--journal DIR is the session's
/// own directory, so such journals keep resuming), and a certificate block
/// without a session marker, byte-identical to `certify`.
int run_serve(Args& args) {
  const std::vector<std::string> specs = args.values("--jobs");
  const bool single =
      specs.empty() && !args.value("--accept-submissions") && !args.value("--certs-dir");
  const std::string graph_path = single ? args.required("--graph") : std::string();

  svc::JobSpec defaults;
  defaults.model = parse_model(args.value("--model").value_or("sum"));
  defaults.include_deletions = args.flag("--include-deletions");
  defaults.stop_on_violation = args.flag("--stop-on-violation");
  if (args.value("--shards")) {
    defaults.shards = static_cast<std::size_t>(parse_u64(*args.value("--shards"), "--shards"));
  }

  svc::MultiServeConfig config;
  config.address = args.required("--listen");
  config.flat_journal = single;
  if (args.value("--lease-ms")) {
    config.lease_ms = parse_u64(*args.value("--lease-ms"), "--lease-ms");
  }
  if (args.value("--max-retries")) {
    config.max_retries = parse_u32(*args.value("--max-retries"), "--max-retries");
  }
  if (args.value("--backoff-ms")) {
    config.backoff_ms = parse_u64(*args.value("--backoff-ms"), "--backoff-ms");
  }
  // Zero here would make every lease or re-dispatch deadline degenerate;
  // reject it as a usage error, not a guard refusal deep in the service.
  if (config.lease_ms == 0) usage("--lease-ms must be >= 1");
  if (config.backoff_ms == 0) usage("--backoff-ms must be >= 1");
  if (args.value("--journal")) config.journal_root = *args.value("--journal");
  config.resume = args.flag("--resume");
  if (args.value("--accept-submissions")) {
    config.accept_submissions = static_cast<std::size_t>(
        parse_u64(*args.value("--accept-submissions"), "--accept-submissions"));
  }
  const std::string certs_dir = args.value("--certs-dir").value_or("");
  reject_unknown(args);
  if (!single && specs.empty() && config.accept_submissions == 0) {
    usage("serve --jobs mode needs at least one --jobs spec or --accept-submissions");
  }

  std::vector<svc::JobSpec> jobs;
  if (single) {
    jobs.push_back(job_for_graph(graph_path, defaults));
  } else {
    jobs.reserve(specs.size());
    for (const std::string& spec : specs) jobs.push_back(parse_job_spec(spec, defaults));
  }

  if (!certs_dir.empty()) std::filesystem::create_directories(certs_dir);
  Timer timer;
  const svc::MultiServeOutcome outcome = svc::serve_jobs(jobs, config, &std::cerr);
  std::size_t refused = 0;
  for (const svc::SessionOutcome& s : outcome.sessions) {
    if (!s.complete) {
      ++refused;
      std::cerr << "bncg_certify: serve refused session " << s.session_id << ": "
                << s.quarantined.size() << " range(s) quarantined, " << s.agents_uncovered
                << " agents uncovered — certificate withheld"
                << (config.journal_root.empty()
                        ? ""
                        : "; completed ranges are journaled, rerun with --resume")
                << "\n";
      continue;
    }
    const svc::JournalHeader& h = s.header;
    // With several sessions stdout interleaves their blocks behind session
    // markers; --certs-dir additionally writes each block alone to
    // session_<id>.cert so scripts can diff it byte-for-byte against
    // single-process certify.
    if (!single) std::cout << "== session " << s.session_id << " ==\n";
    print_certificate(h.fingerprint, h.n, h.m, h.model, h.include_deletions,
                      h.stop_on_violation, *s.certificate);
    if (!certs_dir.empty()) {
      const std::string path = certs_dir + "/session_" + std::to_string(s.session_id) + ".cert";
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot open for writing: " + path);
      write_certificate(out, h.fingerprint, h.n, h.m, h.model, h.include_deletions,
                        h.stop_on_violation, *s.certificate);
      out.flush();
      if (!out) throw std::runtime_error("write failed: " + path);
    }
  }
  std::cerr << "serve: " << (outcome.sessions.size() - refused) << "/" << outcome.sessions.size()
            << " session(s) certified in " << timer.millis() << " ms\n";
  return refused == 0 ? 0 : 2;
}

/// Shared by `submit` and `status`: the one-frame control-client config.
[[nodiscard]] svc::ConnectConfig parse_control_config(Args& args) {
  svc::ConnectConfig config;
  config.address = args.required("--connect");
  if (args.value("--connect-retries")) {
    config.connect_retries = parse_u32(*args.value("--connect-retries"), "--connect-retries");
  }
  if (args.value("--connect-backoff-ms")) {
    config.connect_backoff_ms =
        parse_u64(*args.value("--connect-backoff-ms"), "--connect-backoff-ms");
  }
  return config;
}

int run_submit(Args& args) {
  const svc::ConnectConfig config = parse_control_config(args);
  const std::string graph_path = args.required("--graph");
  svc::SubmitBody job;
  job.model = parse_model(args.value("--model").value_or("sum"));
  job.include_deletions = args.flag("--include-deletions");
  job.stop_on_violation = args.flag("--stop-on-violation");
  if (args.value("--shards")) {
    job.shard_count = parse_u32(*args.value("--shards"), "--shards");
  }
  reject_unknown(args);

  const Graph g = load_graph(graph_path);
  job.fingerprint = graph_fingerprint(g);
  job.n = g.num_vertices();
  job.m = g.num_edges();
  const svc::AcceptedBody accepted = svc::submit_job(config, job);
  std::ostringstream fp;
  fp << std::hex << job.fingerprint;
  std::cout << "submitted session=" << accepted.session_id
            << " already_queued=" << (accepted.already_queued ? 1 : 0) << " fingerprint=0x"
            << fp.str() << "\n";
  return 0;
}

int run_status(Args& args) {
  const svc::ConnectConfig config = parse_control_config(args);
  reject_unknown(args);

  const svc::JobStatusBody status = svc::query_jobs(config);
  for (const svc::JobSummary& job : status.jobs) {
    std::ostringstream fp;
    fp << std::hex << job.fingerprint;
    const char* state = job.state == svc::JobSummary::State::Complete  ? "complete"
                        : job.state == svc::JobSummary::State::Refused ? "refused"
                                                                       : "active";
    std::cout << "session=" << job.session_id << " state=" << state << " ranges="
              << job.completed_ranges << "/" << job.shard_count
              << " quarantined=" << job.quarantined_ranges << " n=" << job.n << " m=" << job.m
              << " model=" << (job.model == UsageCost::Sum ? "sum" : "max")
              << " include_deletions=" << (job.include_deletions ? 1 : 0)
              << " stop_on_violation=" << (job.stop_on_violation ? 1 : 0) << " fingerprint=0x"
              << fp.str() << "\n";
  }
  std::cerr << "status: " << status.jobs.size() << " session(s)\n";
  return 0;
}

int run_merge(Args& args) {
  const std::vector<std::string> files = args.positionals();
  if (files.empty()) usage("merge needs at least one shard file");
  std::vector<ShardResult> shards;
  shards.reserve(files.size());
  for (const std::string& path : files) shards.push_back(read_shard_file(path));
  Timer timer;
  const ShardedCertificate merged = merge_shard_results(shards);
  const ShardResult& head = shards.front();
  print_certificate(head.fingerprint, head.n, head.m, head.model, head.include_deletions,
                    head.stop_on_violation, merged);
  std::cerr << "merge: " << merged.shards_used << " shards, width=" << dist_width_name(merged.width)
            << " fallbacks=" << merged.width_fallbacks << " " << timer.millis() << " ms\n";
  return 0;
}

int run_certify(Args& args) {
  const std::string graph_path = args.required("--graph");
  const UsageCost model = parse_model(args.value("--model").value_or("sum"));
  ShardedCertifyConfig config;
  config.stop_on_violation = args.flag("--stop-on-violation");
  config.resources.width = parse_width(args.value("--width").value_or("auto"));
  config.resources.mem_budget = parse_mem_budget(args);
  if (args.value("--shards")) {
    config.shards = static_cast<std::size_t>(parse_u64(*args.value("--shards"), "--shards"));
  }
  const bool include_deletions = args.flag("--include-deletions");
  reject_unknown(args);

  const Graph g = load_graph(graph_path);
  Timer timer;
  const ShardedCertificate cert = certify_sharded(g, model, include_deletions, config);
  print_certificate(graph_fingerprint(g), g.num_vertices(), g.num_edges(), model,
                    include_deletions, config.stop_on_violation, cert);
  std::cerr << "certify: " << cert.shards_used << " shards, width=" << dist_width_name(cert.width)
            << " fallbacks=" << cert.width_fallbacks << " " << timer.millis() << " ms\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  if (mode == "--help" || mode == "-h" || mode == "help") usage("", 0);
  Args args(argc, argv, 2);
  try {
    if (mode == "gen") return run_gen(args);
    if (mode == "worker") return run_worker(args);
    if (mode == "chaos-worker") return run_chaos_worker(args);
    if (mode == "serve") return run_serve(args);
    if (mode == "submit") return run_submit(args);
    if (mode == "status") return run_status(args);
    if (mode == "merge") return run_merge(args);
    if (mode == "certify") return run_certify(args);
    usage("unknown mode: " + mode);
  } catch (const svc::TransportError& e) {
    // Socket-level failure that survived the bounded retry budget.
    std::cerr << "bncg_certify: transport failure: " << e.what() << "\n";
    return 4;
  } catch (const std::invalid_argument& e) {
    // Wire decode / merge guard / handshake rejections — the "refuse to
    // trust this data" path.
    std::cerr << "bncg_certify: refused: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "bncg_certify: error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    // Nothing may escape main as an uncaught throw: an unknown exception
    // type is still a diagnosable exit-1 environment error, never a core.
    std::cerr << "bncg_certify: error: unknown exception\n";
    return 1;
  }
}
