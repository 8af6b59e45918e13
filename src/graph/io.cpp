#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

namespace bncg {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) os << u << ' ' << v << '\n';
}

Graph read_edge_list(std::istream& is) {
  long long n = -1, m = -1;
  if (!(is >> n >> m) || n < 0 || m < 0) {
    throw std::invalid_argument("edge list: bad header");
  }
  BNCG_REQUIRE(n <= (1ll << 31), "edge list: vertex count too large");
  Graph g(static_cast<Vertex>(n));
  for (long long i = 0; i < m; ++i) {
    long long u = -1, v = -1;
    if (!(is >> u >> v)) throw std::invalid_argument("edge list: truncated");
    if (u < 0 || v < 0 || u >= n || v >= n) {
      throw std::invalid_argument("edge list: endpoint out of range");
    }
    g.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  // The header fixes the edge count, so anything but whitespace after the
  // m-th edge is a malformed file, not extra data to ignore.
  if (!(is >> std::ws).eof()) throw std::invalid_argument("edge list: trailing tokens");
  return g;
}

void write_dot(std::ostream& os, const Graph& g, const std::string& name) {
  os << "graph " << name << " {\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) os << "  " << v << ";\n";
  for (const auto& [u, v] : g.edges()) os << "  " << u << " -- " << v << ";\n";
  os << "}\n";
}

namespace {

/// Appends the graph6 representation of value `n` (the size prefix).
void append_g6_size(std::string& out, std::uint64_t n) {
  if (n < 63) {
    out.push_back(static_cast<char>(n + 63));
  } else if (n < (1u << 18)) {
    out.push_back(126);
    out.push_back(static_cast<char>(((n >> 12) & 63) + 63));
    out.push_back(static_cast<char>(((n >> 6) & 63) + 63));
    out.push_back(static_cast<char>((n & 63) + 63));
  } else {
    throw std::invalid_argument("graph6: n >= 2^18 unsupported");
  }
}

/// Reads the size prefix, advancing `pos`.
std::uint64_t read_g6_size(const std::string& s, std::size_t& pos) {
  BNCG_REQUIRE(pos < s.size(), "graph6: empty input");
  const unsigned char c = static_cast<unsigned char>(s[pos]);
  if (c != 126) {
    BNCG_REQUIRE(c >= 63 && c <= 125, "graph6: bad size byte");
    ++pos;
    return c - 63;
  }
  BNCG_REQUIRE(pos + 3 < s.size(), "graph6: truncated size");
  std::uint64_t n = 0;
  for (int i = 1; i <= 3; ++i) {
    const unsigned char b = static_cast<unsigned char>(s[pos + i]);
    BNCG_REQUIRE(b >= 63 && b <= 126, "graph6: bad size byte");
    n = (n << 6) | (b - 63);
  }
  pos += 4;
  return n;
}

}  // namespace

std::string to_graph6(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::string out;
  append_g6_size(out, n);
  // Upper-triangle bits in column-major order: pair (u, v) with u < v is bit
  // index v(v−1)/2 + u; packed into 6-bit groups, zero-padded.
  int bit_pos = 5;
  unsigned char current = 0;
  for (Vertex v = 1; v < n; ++v) {
    for (Vertex u = 0; u < v; ++u) {
      if (g.has_edge(u, v)) current |= static_cast<unsigned char>(1u << bit_pos);
      if (--bit_pos < 0) {
        out.push_back(static_cast<char>(current + 63));
        current = 0;
        bit_pos = 5;
      }
    }
  }
  if (bit_pos != 5) out.push_back(static_cast<char>(current + 63));
  return out;
}

std::uint64_t fnv1a64(const void* data, std::size_t size) noexcept {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// Folds `value` into the running FNV state as little-endian bytes, so the
/// fingerprint is identical across host endiannesses.
void fnv_append_u64(std::uint64_t& h, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<unsigned char>(value >> (8 * i));
    h *= 0x100000001b3ull;
  }
}

/// Shared over both representations: each keeps adjacencies sorted, so the
/// canonical edge enumeration — (u, v) with u < v, lexicographic — is a
/// function of the edge *set* alone and the two overloads hash identical
/// byte sequences.
template <typename GraphLike>
std::uint64_t fingerprint_impl(const GraphLike& g) {
  const Vertex n = g.num_vertices();
  std::uint64_t h = fnv1a64("bncg-graph-v1", 13);
  fnv_append_u64(h, n);
  fnv_append_u64(h, g.num_edges());
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : g.neighbors(u)) {
      if (v <= u) continue;
      fnv_append_u64(h, u);
      fnv_append_u64(h, v);
    }
  }
  return h;
}

}  // namespace

std::uint64_t graph_fingerprint(const Graph& g) { return fingerprint_impl(g); }

std::uint64_t graph_fingerprint(const CsrGraph& g) { return fingerprint_impl(g); }

Graph from_graph6(const std::string& g6) {
  std::size_t pos = 0;
  const std::uint64_t n64 = read_g6_size(g6, pos);
  BNCG_REQUIRE(n64 < (1ull << 31), "graph6: n too large");
  const Vertex n = static_cast<Vertex>(n64);
  Graph g(n);
  int bit_pos = -1;
  unsigned char current = 0;
  for (Vertex v = 1; v < n; ++v) {
    for (Vertex u = 0; u < v; ++u) {
      if (bit_pos < 0) {
        BNCG_REQUIRE(pos < g6.size(), "graph6: truncated data");
        const unsigned char c = static_cast<unsigned char>(g6[pos++]);
        BNCG_REQUIRE(c >= 63 && c <= 126, "graph6: bad data byte");
        current = static_cast<unsigned char>(c - 63);
        bit_pos = 5;
      }
      if (current & (1u << bit_pos)) g.add_edge(u, v);
      --bit_pos;
    }
  }
  return g;
}

}  // namespace bncg
