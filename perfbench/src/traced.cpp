// The traced run: per-layer metrics, each timed around a public library
// call, with every call recorded as a span (trace.hpp).
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <unistd.h>

#include "run.hpp"
#include "svc/net.hpp"
#include "svc/protocol.hpp"

namespace perfbench {

namespace {

using bncg::SwapEngine;

template <typename Dist>
constexpr Dist engine_inf() {
  if constexpr (sizeof(Dist) == 1) {
    return bncg::kSearchInf8;
  } else {
    return bncg::kInfDist16;
  }
}

template <typename Dist>
constexpr Dist engine_max_finite() {
  if constexpr (sizeof(Dist) == 1) {
    return bncg::kMaxFiniteFor<std::uint8_t>;
  } else {
    return static_cast<std::uint16_t>(bncg::kInfDist16 - 1);
  }
}

// ------------------------------------------------------------ graph/bfs_batch

/// The masked APSP a dense scan of agent v starts with: csr_apsp_capped
/// of G − v at the engine's width (an agent whose u8 sweep saturates is
/// redone at u16, as the engine does).
class MaskedApsp {
 public:
  explicit MaskedApsp(const SwapEngine& engine)
      : csr_(engine.snapshot()), u8_(engine.preferred_width() == bncg::DistWidth::U8) {}

  void operator()(Vertex v) {
    const std::size_t cells = static_cast<std::size_t>(csr_.num_vertices()) * csr_.num_vertices();
    if (u8_) {
      slab8_.resize(cells);
      if (bncg::csr_apsp_capped<std::uint8_t>(csr_, bncg::MaskedEdge{}, slab8_.data(), ws_, v,
                                              engine_inf<std::uint8_t>(),
                                              engine_max_finite<std::uint8_t>())) {
        return;
      }
    }
    slab16_.resize(cells);
    (void)bncg::csr_apsp_capped<std::uint16_t>(csr_, bncg::MaskedEdge{}, slab16_.data(), ws_, v,
                                               engine_inf<std::uint16_t>(),
                                               engine_max_finite<std::uint16_t>());
  }

 private:
  const bncg::CsrGraph& csr_;
  bool u8_;
  bncg::AlignedVec<std::uint8_t> slab8_;
  bncg::AlignedVec<std::uint16_t> slab16_;
  bncg::BatchBfsWorkspace ws_;
};

/// One 64-source masked bfs_batch_capped call — the row cache's miss fill
/// — timed for 64 agents spread over the instance; returns microseconds.
template <typename Dist>
std::vector<double> batch64_sweep(const SwapEngine& engine, Tracer& tr, int parent) {
  const bncg::CsrGraph& csr = engine.snapshot();
  const Vertex n = csr.num_vertices();
  bncg::AlignedVec<Dist> rows(static_cast<std::size_t>(64) * n);
  bncg::BatchBfsWorkspace ws;
  std::vector<double> us;
  for (Vertex i = 0; i < 64; ++i) {
    const Vertex v = static_cast<Vertex>(static_cast<std::uint64_t>(i) * n / 64);
    std::vector<Vertex> sources;
    for (Vertex s = v + 1; sources.size() < 64; ++s) sources.push_back(s % n);
    us.push_back(1e6 * tr.timed("graph/bfs_batch.bfs_batch_capped", parent, [&] {
      (void)bncg::bfs_batch_capped<Dist>(csr, sources, bncg::MaskedEdge{}, rows.data(), n, ws, v,
                                         engine_inf<Dist>(), engine_max_finite<Dist>());
    }));
  }
  return us;
}

// ------------------------------------------------------------------ util/simd

struct KernelTiming {
  double ns = 0;     ///< per call
  double bytes = 0;  ///< computed bytes read + written per call
};

/// Times `call` in a loop of at least 20 ms; returns ns per call.
template <typename F>
double ns_per_call(Tracer& tr, const std::string& name, int parent, F&& call) {
  std::uint64_t calls = 0;
  const double seconds = tr.timed(name, parent, [&] {
    const double start = now_s();
    do {
      for (int i = 0; i < 64; ++i) call();
      calls += 64;
    } while (now_s() - start < 0.02);
  });
  return 1e9 * seconds / static_cast<double>(calls);
}

/// The scan kernels at the workload's n and width, on real rows: the
/// masked APSP of G − 0.
template <typename Dist>
std::vector<std::pair<std::string, KernelTiming>> simd_kernels(const SwapEngine& engine,
                                                               Tracer& tr, int parent) {
  const bncg::CsrGraph& csr = engine.snapshot();
  const Vertex n = csr.num_vertices();
  constexpr Dist kInf = engine_inf<Dist>();
  bncg::AlignedVec<Dist> apsp(static_cast<std::size_t>(n) * n);
  bncg::BatchBfsWorkspace ws;
  if (!bncg::csr_apsp_capped<Dist>(csr, bncg::MaskedEdge{}, apsp.data(), ws, 0, kInf,
                                   engine_max_finite<Dist>())) {
    throw std::runtime_error("simd probe rows saturate the width");
  }
  const auto row = [&](Vertex z) { return apsp.data() + static_cast<std::size_t>(z) * n; };
  const bncg::simd::Kernels<Dist>& k = bncg::simd::kernels<Dist>();
  bncg::AlignedVec<Dist> min1(n, kInf), min2(n, kInf), m(n);
  bncg::AlignedVec<std::uint32_t> argmin(n, bncg::kNoVertex), out(n);
  const double d = sizeof(Dist);
  const double nn = n;
  std::vector<std::pair<std::string, KernelTiming>> timings;

  Vertex z = 1;
  timings.push_back({"scan_min_update",
                     {ns_per_call(tr, "util/simd.scan_min_update", parent,
                                  [&] {
                                    k.scan_min_update(min1.data(), min2.data(), argmin.data(),
                                                      row(z), z, n);
                                    z = z % (n - 1) + 1;
                                  }),
                      nn * (5 * d + 8)}});
  timings.push_back({"select_mrow",
                     {ns_per_call(tr, "util/simd.select_mrow", parent,
                                  [&] {
                                    k.select_mrow(m.data(), min1.data(), min2.data(),
                                                  argmin.data(), z, n);
                                    z = z % (n - 1) + 1;
                                  }),
                      nn * (3 * d + 4)}});
  volatile std::uint64_t sink = 0;
  timings.push_back({"combine_sum",
                     {ns_per_call(tr, "util/simd.combine_sum", parent,
                                  [&] {
                                    sink = sink + k.combine_sum(m.data(), row(z), n, kInf);
                                    z = z % (n - 1) + 1;
                                  }),
                      nn * 2 * d}});
  timings.push_back({"combine_max",
                     {ns_per_call(tr, "util/simd.combine_max", parent,
                                  [&] {
                                    sink = sink + k.combine_max(m.data(), row(z), n, kInf);
                                    z = z % (n - 1) + 1;
                                  }),
                      nn * 2 * d}});
  // The far filter's cap: ecc − 2 of the M^w row, as in the max scan.
  Dist ecc = 0;
  for (Vertex y = 0; y < n; ++y) {
    if (m[y] < kInf) ecc = std::max(ecc, m[y]);
  }
  const std::int32_t cap = static_cast<std::int32_t>(ecc) - 2;
  const std::uint32_t far = k.collect_above(m.data(), n, cap, 0, out.data());
  timings.push_back({"collect_above",
                     {ns_per_call(tr, "util/simd.collect_above", parent,
                                  [&] { sink = sink + k.collect_above(m.data(), n, cap, 0,
                                                                      out.data()); }),
                      nn * d + 4.0 * far}});
  return timings;
}

// --------------------------------------------------------------- svc worker

struct TracedService {
  Tracer* tracer = nullptr;
  int parent = -1;
  std::vector<WorkerSamples> workers = std::vector<WorkerSamples>(kServiceWorkers);
};

/// run_connect_worker's protocol loop rebuilt from the public protocol
/// calls, with a span around each: connect + Hello/Welcome, the engine
/// build, every lease wait, range scan, wire encode and send.
void traced_worker(const Graph& g, const std::string& address, unsigned index, void* context) {
  using namespace bncg::svc;
  auto& ctx = *static_cast<TracedService*>(context);
  Tracer& tr = *ctx.tracer;
  WorkerSamples& samples = ctx.workers[index];
  const int worker_span = tr.begin("svc.worker", ctx.parent);

  Socket sock;
  tr.timed("svc.handshake", worker_span, [&] {
    for (int attempt = 0;; ++attempt) {
      try {
        sock = connect_to(address);
        break;
      } catch (const TransportError&) {
        if (attempt >= 2000) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    HelloBody hello;
    hello.fingerprint = bncg::graph_fingerprint(g);
    hello.n = g.num_vertices();
    hello.m = g.num_edges();
    sock.send_frame(make_hello(hello));
  });
  const Frame reply = sock.recv_frame();
  if (reply.type == FrameType::Done) {  // the other workers finished every range
    tr.end(worker_span);
    return;
  }
  if (reply.type != FrameType::Welcome) throw std::runtime_error("traced worker not welcomed");
  (void)parse_welcome(reply);

  std::optional<SwapEngine> engine;
  tr.timed("core/swap_engine.build", worker_span, [&] { engine.emplace(g, worker_resources()); });
  SwapEngine::Scratch scratch;
  while (true) {
    Frame frame;
    samples.lease_wait_s.push_back(
        tr.timed("svc.lease_wait", worker_span, [&] { frame = sock.recv_frame(); }));
    if (frame.type == FrameType::Done) break;
    const LeaseBody lease = parse_lease(frame);
    bncg::ShardResult shard;
    samples.range_s.push_back(tr.timed("core/certify_sharded.certify_agent_range", worker_span, [&] {
      shard = bncg::certify_agent_range(*engine, lease.range, lease.model, lease.include_deletions,
                                        lease.stop_on_violation, &scratch);
    }));
    std::string bytes;
    samples.encode_s.push_back(tr.timed("core/certify_wire.encode", worker_span, [&] {
      bytes = encode_frame(make_result(bncg::shard_to_binary(shard)));
    }));
    tr.timed("svc.send", worker_span, [&] { sock.send_bytes(bytes); });
    samples.frames.push_back(std::move(bytes));
  }
  tr.end(worker_span);
}

double max_over_mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return *std::max_element(v.begin(), v.end()) / (sum / static_cast<double>(v.size()));
}

/// Every layer the spans name, reported in this order (0 when a workload
/// never enters it).
constexpr const char* kLayers[] = {
    "perfbench",         "graph/io",  "graph/bfs_batch",  "core/swap_engine", "core/certify_sharded",
    "core/certify_wire", "util/simd", "util/thread_pool", "svc"};

}  // namespace

TracedCertify traced_certify(const WorkloadSpec& spec, const Graph& g,
                             const bncg::svc::JobSpec& job, const std::string& workdir,
                             Tracer& tr, int parent) {
  TracedCertify out;
  const int span = tr.begin("perfbench.certify", parent);
  if (spec.path == Path::Service) {
    TracedService ctx{&tr, tr.reserve("svc.serve_jobs", span)};
    ServiceRun run = serve_once(g, job, workdir, traced_worker, &ctx);
    tr.set_times(ctx.parent, run.started_s, run.started_s + run.certify_s);
    tr.end(span);
    out.certificate = std::move(run.certificate);
    out.seconds = run.certify_s;
    out.covered_s = tr.covered_by_descendants(ctx.parent);
    out.stats = run.stats;
    for (const WorkerSamples& w : ctx.workers) {
      out.range_s.insert(out.range_s.end(), w.range_s.begin(), w.range_s.end());
    }
    out.workers = std::move(ctx.workers);
    return out;
  }
  // certify_sharded's shape from the outside: 4 shards per pool lane, one
  // Scratch per lane, merge in shard order.
  const Vertex n = g.num_vertices();
  const unsigned lanes = bncg::ThreadPool::global().size();
  const std::size_t shards = std::min<std::size_t>(n, 4 * lanes);
  const double t0 = now_s();
  std::optional<SwapEngine> engine;
  tr.timed("core/swap_engine.build", span,
           [&] { engine.emplace(g, run_config(spec).resources); });
  std::vector<bncg::ShardResult> results(shards);
  std::vector<SwapEngine::Scratch> scratch(lanes);
  out.range_s.assign(shards, 0);
  const int pool = tr.begin("util/thread_pool.parallel_for", span);
  bncg::ThreadPool::global().parallel_for(shards, 1, [&](std::uint64_t s, unsigned tid) {
    bncg::AgentRange range;
    range.lo = static_cast<Vertex>(s * n / shards);
    range.hi = static_cast<Vertex>((s + 1) * n / shards);
    range.shard_index = static_cast<std::uint32_t>(s);
    range.shard_count = static_cast<std::uint32_t>(shards);
    out.range_s[s] = tr.timed("core/certify_sharded.certify_agent_range", pool, [&] {
      results[s] = bncg::certify_agent_range(*engine, range, spec.model, spec.include_deletions,
                                             false, &scratch[tid]);
    });
  });
  tr.end(pool);
  tr.timed("core/certify_sharded.merge_shard_results", span,
           [&] { out.certificate = bncg::merge_shard_results(results); });
  out.seconds = now_s() - t0;
  tr.end(span);
  out.covered_s = tr.covered_by_descendants(span);
  return out;
}

Result run_traced(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  const bool service = spec.path == Path::Service;
  Tracer tr(std::string(spec.name) + "/seed" + std::to_string(args.seed) + "/pid" +
            std::to_string(::getpid()));
  const int root = tr.begin("perfbench.run", -1);

  Prepared prep = prepare(args, &tr, root);
  resolve_reference(args, prep);
  const Graph& g = prep.parsed;
  const Vertex n = g.num_vertices();
  const bncg::Instance inst(g);
  const bncg::ResourceConfig resources =
      service ? worker_resources() : run_config(spec).resources;
  Result result;

  // core/swap_engine: construction (CSR snapshot + width probe).
  std::vector<double> build_s;
  for (int rep = 0; rep < 5; ++rep) {
    build_s.push_back(tr.timed("core/swap_engine.build", root, [&] { SwapEngine e(g, resources); }));
  }
  const SwapEngine engine(g, resources);
  const bool u8 = engine.preferred_width() == bncg::DistWidth::U8;
  const bool dense =
      engine.budget_policy().storage_for(n, engine.preferred_width()) == bncg::RowStorage::Dense;

  // Serial sweep in agent order, one Scratch: the single-thread baseline.
  // Under dense storage the masked APSPs of each block of 16 agents are
  // timed right before the block's scans: close enough in time to share
  // the machine state, far enough apart not to evict each other's slabs
  // at every agent.
  constexpr Vertex kBlock = 16;
  std::vector<double> agent_s, apsp_s;
  std::uint64_t moves = 0;
  SwapEngine::Scratch scratch;
  MaskedApsp masked_apsp(engine);
  const int sweep = tr.begin("perfbench.serial_sweep", root);
  for (Vertex lo = 0; lo < n; lo += kBlock) {
    const Vertex hi = std::min(n, lo + kBlock);
    for (Vertex v = lo; v < hi && dense; ++v) {
      apsp_s.push_back(
          tr.timed("graph/bfs_batch.csr_apsp_capped", sweep, [&] { masked_apsp(v); }));
    }
    for (Vertex v = lo; v < hi; ++v) {
      agent_s.push_back(tr.timed("core/swap_engine.best_deviation", sweep, [&] {
        (void)engine.best_deviation(v, spec.model, scratch, spec.include_deletions, &moves);
      }));
    }
  }
  tr.end(sweep);
  double serial_s = 0;
  for (const double s : agent_s) serial_s += s;
  double apsp_total_s = 0;
  for (const double s : apsp_s) apsp_total_s += s;
  const bncg::RowCacheStats cache = scratch.row_cache_stats();
  std::vector<double> scan_self_ms;
  for (Vertex v = 0; v < n; ++v) {
    scan_self_ms.push_back(1e3 * (agent_s[v] - (dense ? apsp_s[v] : 0.0)));
  }
  const std::vector<double> batch64_us =
      u8 ? batch64_sweep<std::uint8_t>(engine, tr, root)
         : batch64_sweep<std::uint16_t>(engine, tr, root);
  const auto kernels = u8 ? simd_kernels<std::uint8_t>(engine, tr, root)
                          : simd_kernels<std::uint16_t>(engine, tr, root);

  // Warm-up, then untraced and traced certifications alternately for
  // --seconds: the traced one decomposes the certification into spans.
  int rep = 0;
  auto workdir = [&] { return args.workdir + "/rep" + std::to_string(rep++); };
  double warmup_s = 0;
  (void)certify_path(spec, inst, prep.job, workdir(), &warmup_s);
  const unsigned lanes = bncg::ThreadPool::global().size();
  std::vector<double> untraced_s, traced_s, coverage, imbalance;
  TracedCertify last;
  const double start = now_s();
  do {
    double seconds = 0;
    result.check(block_of(args, prep, certify_path(spec, inst, prep.job, workdir(), &seconds)),
                 prep.reference);
    untraced_s.push_back(seconds);
    last = traced_certify(spec, g, prep.job, workdir(), tr, root);
    result.check(block_of(args, prep, last.certificate), prep.reference);
    traced_s.push_back(last.seconds);
    coverage.push_back(last.covered_s);
    imbalance.push_back(max_over_mean(last.range_s));
  } while (now_s() - start < args.seconds);
  const double certify_s = median(untraced_s);
  for (double& c : coverage) c /= certify_s;

  // core/certify_wire + svc: decode and journal-write every result frame
  // of the last traced service run.
  std::vector<double> encode_us, decode_us, wire_bytes, journal_ms, lease_wait_ms;
  if (service) {
    const std::string dir = workdir();
    std::filesystem::create_directories(dir);
    const int span = tr.begin("perfbench.wire", root);
    std::uint32_t index = 0;
    for (const WorkerSamples& w : last.workers) {
      for (const double s : w.encode_s) encode_us.push_back(1e6 * s);
      for (const double s : w.lease_wait_s) lease_wait_ms.push_back(1e3 * s);
      for (const std::string& frame : w.frames) {
        std::string buffer = frame;
        std::optional<bncg::svc::Frame> decoded;
        bncg::ShardResult shard;
        decode_us.push_back(1e6 * tr.timed("core/certify_wire.decode", span, [&] {
          decoded = bncg::svc::try_decode_frame(buffer);
          shard = bncg::shard_from_binary(decoded->payload);
        }));
        wire_bytes.push_back(static_cast<double>(frame.size()));
        const std::string path = dir + "/range_" + std::to_string(index++) + ".shard";
        journal_ms.push_back(1e3 * tr.timed("core/certify_wire.write_file_atomic", span, [&] {
          bncg::write_file_atomic(path, decoded->payload);
        }));
      }
    }
    tr.end(span);
    std::filesystem::remove_all(dir);
  }
  tr.end(root);

  tr.write_json(args.workdir + "/trace-" + std::string(spec.name) + "-seed" +
                std::to_string(args.seed) + ".json");

  std::vector<double> apsp_ms;
  for (const double s : apsp_s) apsp_ms.push_back(1e3 * s);
  std::vector<double> agent_ms;
  for (const double s : agent_s) agent_ms.push_back(1e3 * s);
  const double lookups = static_cast<double>(cache.hits + cache.misses);

  result.add("io.read_ms", 1e3 * median(prep.read_s), "ms");
  result.add("io.fingerprint_ms", 1e3 * median(prep.fingerprint_s), "ms");
  result.add("core.engine_build_ms", 1e3 * median(build_s), "ms");
  result.add("bfs.masked_apsp_ms_p50", percentile(apsp_ms, 50), "ms");
  result.add("bfs.masked_apsp_ms_p99", percentile(apsp_ms, 99), "ms");
  result.add("bfs.masked_apsp_share", serial_s > 0 ? apsp_total_s / serial_s : 0, "ratio");
  result.add("bfs.batch64_us", median(batch64_us), "us");
  result.add("row_cache.hits", static_cast<double>(cache.hits), "count");
  result.add("row_cache.misses", static_cast<double>(cache.misses), "count");
  result.add("row_cache.hit_rate", lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0,
             "ratio");
  result.add("row_cache.evictions", static_cast<double>(cache.evictions), "count");
  result.add("row_cache.peak_bytes", static_cast<double>(cache.peak_bytes), "bytes");
  result.add("row_cache.misses_per_agent", static_cast<double>(cache.misses) / n, "count");
  result.add("scan.agents", n, "count");
  result.add("scan.agent_ms_p50", percentile(agent_ms, 50), "ms");
  result.add("scan.agent_ms_p99", percentile(agent_ms, 99), "ms");
  result.add("scan.self_ms_p50", percentile(scan_self_ms, 50), "ms");
  result.add("scan.serial_s", serial_s, "s");
  result.add("scan.moves_per_agent", static_cast<double>(moves) / n, "count");
  result.add("scan.width_bits", u8 ? 8 : 16, "bits");
  result.add("scan.dense", dense ? 1 : 0, "bool");
  result.add("scan.width_fallbacks", static_cast<double>(engine.width_fallbacks()), "count");
  for (const auto& [name, timing] : kernels) {
    result.add("simd." + name + "_ns", timing.ns, "ns");
    result.add("simd." + name + "_bytes", timing.bytes, "bytes");
  }
  result.add("simd.level", static_cast<double>(bncg::simd_active_level()), "level");
  result.add("pool.lanes", lanes, "count");
  result.add("pool.efficiency", service ? 0 : serial_s / (lanes * certify_s), "ratio");
  result.add("shard.imbalance", median(imbalance), "ratio");
  result.add("wire.encode_us", median(encode_us), "us");
  result.add("wire.decode_us", median(decode_us), "us");
  result.add("wire.bytes", median(wire_bytes), "bytes");
  result.add("journal.write_ms", median(journal_ms), "ms");
  result.add("svc.leases", static_cast<double>(last.stats.leases_granted), "count");
  result.add("svc.redispatches", static_cast<double>(last.stats.redispatches), "count");
  result.add("svc.expired_leases", static_cast<double>(last.stats.expired_leases), "count");
  result.add("svc.lease_wait_ms_p50", median(lease_wait_ms), "ms");
  result.add("svc.overhead_s", service ? certify_s - serial_s / kServiceWorkers : 0, "s");
  result.add("warmup.discarded_s", warmup_s, "s");
  result.add("trace.untraced_certify_s", certify_s, "s");
  result.add("trace.traced_certify_s", median(traced_s), "s");
  result.add("trace.overhead_s", median(traced_s) - certify_s, "s");
  result.add("trace.coverage", median(coverage), "ratio");
  const std::map<std::string, double> self = tr.self_time_by_layer();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    std::string name = std::string("self_s.") + layer;
    std::replace(name.begin(), name.end(), '/', '_');
    result.add(name, it == self.end() ? 0.0 : it->second, "s");
  }
  return result;
}

}  // namespace perfbench
