// bncg_perfbench — the repository benchmark's measuring program.
//
//   bncg_perfbench --workload NAME --seed N --seconds T --trace 0|1
//                  --refs DIR --workdir DIR
//   bncg_perfbench --selftest --seed N --refs DIR --workdir DIR
//   bncg_perfbench --pin FIRST LAST --workload NAME
//
// A run prints a "provenance {...}" line, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. --pin
// prints pinned reference blocks for a seed range (perfbench/reference).
// perfbench/run.py builds this program and is the benchmark's front door.
#include <malloc.h>

#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "run.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "bncg_perfbench: " << why << "\n"
            << "usage: bncg_perfbench --workload NAME --seed N --seconds T --trace 0|1 "
               "--refs DIR --workdir DIR\n"
               "       bncg_perfbench --selftest --seed N --refs DIR --workdir DIR\n"
               "       bncg_perfbench --pin FIRST LAST --workload NAME\n";
  std::exit(1);
}

std::uint64_t parse_u64(const std::string& text, const std::string& flag) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage("bad " + flag + ": " + text);
  }
  if (used != text.size()) usage("bad " + flag + ": " + text);
  return value;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_provenance(const RunArgs& args, int trace) {
  const bncg::ResourceConfig resources = args.spec->path == Path::Service
                                             ? worker_resources()
                                             : run_config(*args.spec).resources;
  const bncg::WidthAndBudgetPolicy policy(resources);
  const char* threads_env = std::getenv("BNCG_THREADS");
  std::cout << "provenance {\"workload\": " << json_string(std::string(args.spec->name))
            << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << trace
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"pool_lanes\": " << bncg::ThreadPool::global().size()
            << ", \"BNCG_THREADS\": "
            << (threads_env != nullptr ? json_string(threads_env) : std::string("null"))
            << ", \"simd_level\": "
            << json_string(bncg::simd_level_name(bncg::simd_active_level()))
            << ", \"mem_budget_bytes\": " << policy.total_budget()
            << ", \"lane_budget_bytes\": " << policy.lane_budget()
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER) << "}\n";
}

void print_result(const Result& result) {
  std::ostringstream out;
  out << std::setprecision(12) << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i == 0 ? "" : ", ") << json_string(m.name) << ": {\"value\": " << m.value
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int pin(const WorkloadSpec& spec, std::uint64_t first, std::uint64_t last) {
  // A block is emitted only when the cross-check configuration reproduces
  // the reference configuration's certificate byte for byte.
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const Graph g = generate_graph(spec, seed);
    const std::uint64_t fp = bncg::graph_fingerprint(g);
    std::string blocks[2];
    for (const bool cross : {false, true}) {
      blocks[cross ? 1 : 0] = certificate_block(
          spec, fp, g.num_vertices(), g.num_edges(),
          bncg::certify_sharded(g, spec.model, spec.include_deletions,
                                reference_config(spec, cross)));
    }
    if (blocks[0] != blocks[1]) {
      std::cerr << "bncg_perfbench: seed " << seed << " certificates disagree\n";
      return 3;
    }
    std::cout << "== seed " << seed << " ==\n" << blocks[0] << std::flush;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peak RSS should measure live memory, not allocator state that depends
  // on thread timing. A fixed mmap threshold turns off glibc's adaptive
  // one, under which a freed slab raises the threshold and later slabs
  // stay in the heap; slabs above 128 KiB now always come from and go back
  // to mmap. One arena stops each new pool, dispatcher or worker thread
  // from touching a fresh per-thread heap.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_ARENA_MAX, 1);
  RunArgs args;
  int trace = -1;
  bool selftest = false;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> pin_range;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      const std::string name = value();
      args.spec = find_workload(name);
      if (args.spec == nullptr) usage("unknown workload " + name);
    } else if (flag == "--seed") {
      args.seed = parse_u64(value(), flag);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(value(), flag));
    } else if (flag == "--trace") {
      trace = static_cast<int>(parse_u64(value(), flag));
      if (trace > 1) usage("--trace takes 0 or 1");
    } else if (flag == "--refs") {
      args.refs_dir = value();
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--selftest") {
      selftest = true;
    } else if (flag == "--pin") {
      const std::uint64_t first = parse_u64(value(), flag);
      pin_range.emplace(first, parse_u64(value(), flag));
    } else {
      usage("unknown argument " + flag);
    }
  }
  try {
    if (pin_range) {
      if (args.spec == nullptr) usage("--pin needs --workload");
      return pin(*args.spec, pin_range->first, pin_range->second);
    }
    if (args.refs_dir.empty() || args.workdir.empty()) usage("--refs and --workdir are required");
    std::filesystem::create_directories(args.workdir);
    if (selftest) return run_selftest(args);
    if (args.spec == nullptr || trace < 0) usage("--workload and --trace are required");
    if (args.seconds < 1) usage("--seconds must be at least 1");
    print_provenance(args, trace);
    print_result(trace == 1 ? run_traced(args) : run_untraced(args));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bncg_perfbench: " << e.what() << "\n";
    return 2;
  }
}
