#include "core/instance.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/dynamics.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace bncg {

Instance::Instance(Graph g) : graph_(std::move(g)) {}

Instance Instance::load_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  try {
    return read_edge_list(in);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("bad graph file " + path + ": " + e.what());
  }
}

Instance Instance::read_edge_list(std::istream& in) { return Instance(bncg::read_edge_list(in)); }

Instance Instance::gnm(Vertex n, std::size_t m, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return Instance(random_connected_gnm(n, m, rng));
}

Instance Instance::torus(Vertex k) { return Instance(rotated_torus(k).graph()); }

std::uint64_t Instance::fingerprint() const {
  if (!fingerprint_cached_) {
    fingerprint_ = graph_fingerprint(graph_);
    fingerprint_cached_ = true;
  }
  return fingerprint_;
}

ShardedCertificate Instance::certify(const RunConfig& run) const {
  ShardedCertifyConfig config;
  config.stop_on_violation = run.stop_on_violation;
  config.resources = run.resources;
  return certify_sharded(graph_, run.model, run.include_deletions, config);
}

DynamicsResult Instance::equilibrate(const RunConfig& run) const {
  return equilibrate(run, DynamicsConfig{});
}

DynamicsResult Instance::equilibrate(const RunConfig& run, DynamicsConfig config) const {
  config.cost = run.model;
  config.allow_neutral_deletions = run.include_deletions;
  config.max_moves = run.max_moves;
  config.seed = run.seed;
  config.resources = run.resources;
  return run_dynamics(graph_, config);
}

std::uint64_t Instance::social_cost(UsageCost model) const {
  return bncg::social_cost(graph_, model);
}

Vertex Instance::diameter() const { return bncg::diameter(graph_); }

}  // namespace bncg
