// Graph serialization: a line-based edge-list format, Graphviz DOT export,
// the standard graph6 codec (McKay) for interchange with nauty-family
// tooling, and a structural fingerprint used as the instance guard of the
// cross-process certification wire format (core/certify_wire.hpp).
// Round-trip safety is covered by the test suite.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace bncg {

/// Writes "n m" on the first line, then one "u v" pair per edge.
void write_edge_list(std::ostream& os, const Graph& g);

/// Largest vertex count an edge-list header may claim. The header sizes the
/// graph before any edge is read, one empty adjacency list per vertex, so a
/// claim whose empty adjacency alone would exceed 4 GiB — the hard memory
/// cap budgeted certification is built to run under (DESIGN.md §16) — is
/// refused up front instead of attempting the allocation: about 1.8·10⁸
/// vertices with 24-byte vectors.
inline constexpr Vertex kMaxEdgeListVertices =
    static_cast<Vertex>((std::uint64_t{1} << 32) / sizeof(std::vector<Vertex>));

/// Parses the write_edge_list format. Throws std::invalid_argument on
/// malformed input (bad counts, a vertex count above kMaxEdgeListVertices,
/// out-of-range ids, duplicate edges, trailing tokens).
[[nodiscard]] Graph read_edge_list(std::istream& is);

/// Graphviz DOT (undirected). `name` is the graph identifier in the output.
void write_dot(std::ostream& os, const Graph& g, const std::string& name = "G");

/// graph6 encoding (McKay's format): supports n < 2^18 here, which covers
/// every instance in this library. Returns the ASCII string without a
/// trailing newline.
[[nodiscard]] std::string to_graph6(const Graph& g);

/// graph6 decoding; throws std::invalid_argument on malformed input.
[[nodiscard]] Graph from_graph6(const std::string& g6);

/// FNV-1a hash of a byte sequence — the checksum primitive of the shard
/// wire format and of graph_fingerprint below.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept;

/// Structural fingerprint of a graph: 64-bit FNV-1a over n, m, and the
/// canonical sorted edge list. Equal graphs (same vertex ids, same edge
/// set) hash equal regardless of edge insertion order; used by the
/// cross-process certification pipeline to refuse merging shard results
/// produced from different instances. The CsrGraph overload hashes the
/// identical byte sequence (both representations keep adjacencies sorted),
/// so a snapshot fingerprints equal to the graph it was built from.
[[nodiscard]] std::uint64_t graph_fingerprint(const Graph& g);
[[nodiscard]] std::uint64_t graph_fingerprint(const CsrGraph& g);

}  // namespace bncg
