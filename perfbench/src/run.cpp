// Shared preparation and the untraced (end-to-end) run.
#include <iostream>
#include <sstream>

#include "run.hpp"

namespace perfbench {

namespace {

/// Set-up repetitions at the start of a run; the untraced run adds more
/// between its timed certifications, so that the set-up median samples
/// the whole run rather than one moment of a shared machine.
constexpr int kSetupReps = 31;
constexpr int kSetupRepsPerCertify = 8;

}  // namespace

void time_setup(const RunArgs& args, Prepared& prep, int reps, Tracer* tracer, int parent) {
  const WorkloadSpec& spec = *args.spec;
  for (int rep = 0; rep < reps; ++rep) {
    const int span = tracer != nullptr ? tracer->begin("perfbench.setup", parent) : -1;
    const double t0 = now_s();
    std::istringstream in(prep.edge_list);
    Graph g = bncg::read_edge_list(in);
    const double t1 = now_s();
    const std::uint64_t fp = bncg::graph_fingerprint(g);
    const double t2 = now_s();
    bncg::svc::JobSpec job;
    if (spec.path == Path::Service) job = job_spec(spec, g, fp);
    const double t3 = now_s();
    if (tracer != nullptr) {
      tracer->set_times(tracer->reserve("graph/io.read_edge_list", span), t0, t1);
      tracer->set_times(tracer->reserve("graph/io.graph_fingerprint", span), t1, t2);
      if (spec.path == Path::Service) {
        tracer->set_times(tracer->reserve("svc.job_spec", span), t2, t3);
      }
      tracer->end(span);
    }
    prep.setup_s.push_back(t3 - t0);
    prep.read_s.push_back(t1 - t0);
    prep.fingerprint_s.push_back(t2 - t1);
    prep.parsed = std::move(g);
    prep.fingerprint = fp;
    prep.job = job;
  }
}

Prepared prepare(const RunArgs& args, Tracer* tracer, int parent) {
  const WorkloadSpec& spec = *args.spec;
  Prepared prep;
  prep.edge_list = edge_list_text(generate_graph(spec, args.seed));
  time_setup(args, prep, kSetupReps, tracer, parent);

  const auto refs = load_references(args.refs_dir, spec.name);
  if (const auto it = refs.find(args.seed); it != refs.end()) {
    prep.reference = it->second;
    prep.pinned = true;
  }
  return prep;
}

void resolve_reference(const RunArgs& args, Prepared& prep) {
  const WorkloadSpec& spec = *args.spec;
  if (!prep.pinned) {
    prep.reference = certificate_block(
        spec, prep.fingerprint, prep.parsed.num_vertices(), prep.parsed.num_edges(),
        bncg::certify_sharded(prep.parsed, spec.model, spec.include_deletions,
                              reference_config(spec, /*cross_check=*/true)));
  }
  std::cout << "reference " << (prep.pinned ? "pinned" : "cross-checked") << " seed "
            << args.seed << "\n";
}

std::optional<std::string> block_of(const RunArgs& args, const Prepared& prep,
                                    const std::optional<bncg::ShardedCertificate>& cert) {
  if (!cert) return std::nullopt;
  return certificate_block(*args.spec, prep.fingerprint, prep.parsed.num_vertices(),
                           prep.parsed.num_edges(), *cert);
}

Result run_untraced(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  Prepared prep = prepare(args);
  const bncg::Instance inst(prep.parsed);

  Result result;
  reset_peak_rss();
  // The discarded multi-threaded warm-up runs right before the timed
  // batch, with no idle gap after it.
  double warmup_s = 0;
  int rep = 0;
  auto workdir = [&] { return args.workdir + "/rep" + std::to_string(rep++); };
  (void)certify_path(spec, inst, prep.job, workdir(), &warmup_s);

  std::vector<double> certify_s;
  std::vector<std::optional<std::string>> blocks;
  const double start = now_s();
  do {
    double seconds = 0;
    const auto cert = certify_path(spec, inst, prep.job, workdir(), &seconds);
    certify_s.push_back(seconds);
    blocks.push_back(block_of(args, prep, cert));
    time_setup(args, prep, kSetupRepsPerCertify, nullptr, -1);
  } while (now_s() - start < args.seconds);
  const double peak_rss = peak_rss_mib();

  // An unpinned seed's cross-check certification runs only now, so that
  // its memory never shows in the peak.
  resolve_reference(args, prep);
  for (const auto& block : blocks) result.check(block, prep.reference);

  std::cout << "certify_s samples";
  for (const double s : certify_s) std::cout << " " << s;
  std::cout << "\n";
  std::cout << "warmup discarded_s=" << warmup_s << " timed_median_s=" << median(certify_s)
            << " runs=" << certify_s.size() << " fail_ratio="
            << static_cast<double>(result.failed) / static_cast<double>(result.attempted)
            << "\n";
  result.add("certify_s", median(certify_s), "s");
  result.add("setup_s", median(prep.setup_s), "s");
  result.add("peak_rss_mb", peak_rss, "MiB");
  return result;
}

}  // namespace perfbench
