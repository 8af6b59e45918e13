// The benchmark's own test. Scaled-down instances from the three workload
// generators and seeds must certify, along every path the benchmark
// measures, exactly as the bncg::naive oracles do; at full size, the
// service certificate must equal the in-process one and the reference.
#include <iostream>

#include "run.hpp"

namespace perfbench {

namespace {

struct Checker {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  }
};

/// Every measured path on one instance: in-process or served (untraced),
/// and the traced decomposition.
std::vector<std::pair<std::string, std::optional<bncg::ShardedCertificate>>> measured_paths(
    const WorkloadSpec& spec, const Graph& g, const std::string& workdir, Tracer& tr) {
  const bncg::Instance inst(g);
  const bncg::svc::JobSpec job = job_spec(spec, g, bncg::graph_fingerprint(g));
  std::vector<std::pair<std::string, std::optional<bncg::ShardedCertificate>>> out;
  out.emplace_back(spec.path == Path::Service ? "served" : "in-process",
                   certify_path(spec, inst, job, workdir + "/untraced"));
  out.emplace_back("traced", traced_certify(spec, g, job, workdir + "/traced", tr, -1).certificate);
  return out;
}

}  // namespace

int run_selftest(const RunArgs& args) {
  Checker check;
  Tracer tr("selftest");
  int case_no = 0;
  // Scaled down: G(48, 96) and k = 4 tori (n = 32), two seeds each.
  for (const WorkloadSpec& spec : workloads()) {
    for (const std::uint64_t seed : {args.seed, args.seed + 1}) {
      const Graph g = generate_graph(spec, seed, spec.torus ? 4 : 48);
      const std::uint64_t fp = bncg::graph_fingerprint(g);
      const bncg::EquilibriumCertificate naive =
          spec.model == UsageCost::Sum ? bncg::naive::certify_sum_equilibrium(g)
                                       : bncg::naive::certify_max_equilibrium(g);
      const std::string expected =
          certificate_block(spec, fp, g.num_vertices(), g.num_edges(), naive);
      const std::string dir = args.workdir + "/selftest" + std::to_string(case_no++);
      for (const auto& [path, cert] : measured_paths(spec, g, dir, tr)) {
        const bool same = cert && certificate_block(spec, fp, g.num_vertices(), g.num_edges(),
                                                    *cert) == expected;
        check.expect(same, std::string(spec.name) + " scaled seed " + std::to_string(seed) +
                               " " + path + " == naive");
      }
    }
  }

  // Full size: the served certificate equals the in-process one and the
  // pinned (or cross-checked) reference.
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.path != Path::Service) continue;
    RunArgs full = args;
    full.spec = &spec;
    Prepared prep = prepare(full);
    resolve_reference(full, prep);
    const bncg::Instance inst(prep.parsed);
    const auto served = certify_path(spec, inst, prep.job, args.workdir + "/selftest-full");
    const std::optional<std::string> in_process =
        block_of(full, prep, inst.certify(run_config(spec)));
    check.expect(block_of(full, prep, served) == in_process,
                 std::string(spec.name) + " full size seed " + std::to_string(args.seed) +
                     " served == in-process");
    check.expect(in_process == prep.reference,
                 std::string(spec.name) + " full size seed " + std::to_string(args.seed) +
                     " in-process == " + (prep.pinned ? "pinned" : "cross-checked") +
                     " reference");
  }
  std::cout << (check.failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return check.failures == 0 ? 0 : 1;
}

}  // namespace perfbench
