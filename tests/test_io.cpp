// Unit tests for graph serialization: edge lists, DOT, graph6 round trips.
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "gen/classic.hpp"
#include "gen/paper.hpp"
#include "gen/random.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

TEST(Io, EdgeListRoundTrip) {
  const Graph g = petersen();
  std::stringstream ss;
  write_edge_list(ss, g);
  EXPECT_EQ(read_edge_list(ss), g);
}

TEST(Io, EdgeListRoundTripOnRandomGraphs) {
  Xoshiro256ss rng(81);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = random_gnm(20, 30 + trial, rng);
    std::stringstream ss;
    write_edge_list(ss, g);
    EXPECT_EQ(read_edge_list(ss), g);
  }
}

TEST(Io, EdgeListRejectsMalformedInput) {
  {
    std::stringstream ss("not a header");
    EXPECT_THROW((void)read_edge_list(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("3 2\n0 1\n");  // promised 2 edges, provided 1
    EXPECT_THROW((void)read_edge_list(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("3 1\n0 7\n");  // endpoint out of range
    EXPECT_THROW((void)read_edge_list(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("3 2\n0 1\n0 1\n");  // duplicate edge
    EXPECT_THROW((void)read_edge_list(ss), std::invalid_argument);
  }
}

TEST(Io, EdgeListRejectsTrailingTokens) {
  for (const char* text : {"2 1\n0 1\n5\n", "2 1\n0 1 7\n"}) {
    std::stringstream ss(text);
    try {
      (void)read_edge_list(ss);
      ADD_FAILURE() << "accepted trailing tokens: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "edge list: trailing tokens");
    }
  }
}

TEST(Io, EdgeListAcceptsTrailingWhitespace) {
  for (const char* text : {"2 1\n0 1", "2 1\n0 1\n", "2 1\n0 1  \n\n\t\n", "2 1 0 1 \r\n"}) {
    std::stringstream ss(text);
    const Graph g = read_edge_list(ss);
    EXPECT_EQ(g.num_vertices(), 2u) << text;
    EXPECT_TRUE(g.has_edge(0, 1)) << text;
  }
}

TEST(Io, DotOutputContainsAllEdges) {
  const Graph g = path(3);
  std::stringstream ss;
  write_dot(ss, g, "P3");
  const std::string out = ss.str();
  EXPECT_NE(out.find("graph P3 {"), std::string::npos);
  EXPECT_NE(out.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(out.find("1 -- 2;"), std::string::npos);
}

TEST(Io, Graph6KnownEncodings) {
  // Canonical examples from the format specification: K4 is "C~",
  // the empty graph on 0 vertices is "?", K2 is "A_".
  EXPECT_EQ(to_graph6(complete(4)), "C~");
  EXPECT_EQ(to_graph6(Graph(0)), "?");
  EXPECT_EQ(to_graph6(Graph(1)), "@");
  EXPECT_EQ(to_graph6(complete(2)), "A_");
}

TEST(Io, Graph6RoundTripSmall) {
  for (const Graph& g : {path(7), cycle(9), star(6), petersen(), complete(5),
                         fig3_diameter3_graph(), diameter3_sum_equilibrium_n8()}) {
    EXPECT_EQ(from_graph6(to_graph6(g)), g) << to_string(g);
  }
}

TEST(Io, Graph6RoundTripRandom) {
  Xoshiro256ss rng(82);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_gnm(40, 100, rng);
    EXPECT_EQ(from_graph6(to_graph6(g)), g);
  }
}

TEST(Io, Graph6LargeNUsesExtendedHeader) {
  const Graph g(100);  // n ≥ 63 → 126-prefixed 18-bit size
  const std::string enc = to_graph6(g);
  EXPECT_EQ(static_cast<unsigned char>(enc[0]), 126);
  EXPECT_EQ(from_graph6(enc).num_vertices(), 100u);
}

TEST(Io, Graph6RejectsGarbage) {
  EXPECT_THROW((void)from_graph6(""), std::invalid_argument);
  EXPECT_THROW((void)from_graph6("C"), std::invalid_argument);      // truncated data
  EXPECT_THROW((void)from_graph6("C\x01\x01"), std::invalid_argument);  // bad bytes
}

TEST(Io, Graph6BitOrderMatchesSpec) {
  // Single edge 0-2 on 3 vertices: bits (0,1)=0, (0,2)=1, (1,2)=0 →
  // 010000 → 'O' (16+63=79).
  Graph g(3);
  g.add_edge(0, 2);
  EXPECT_EQ(to_graph6(g), "BO");
}

}  // namespace
}  // namespace bncg
