// Unit tests for the cross-process certification subsystem: the ShardResult
// wire format (core/certify_wire.hpp) and the range/merge entry points of
// core/certify_sharded.hpp. The heavy randomized coverage (round-trip fuzz,
// corruption sweeps, merge-parity over random partitions) lives in the
// property harness (tests/test_wire_fuzz.cpp); these are the deterministic
// anchors.
#include "core/certify_wire.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "certificate_oracle.hpp"
#include "core/certify_sharded.hpp"
#include "core/swap_engine.hpp"
#include "gen/random.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

[[nodiscard]] ShardResult sample_shard(bool with_witness) {
  ShardResult r;
  r.fingerprint = 0x0123456789ABCDEFull;
  r.n = 512;
  r.m = 1024;
  r.model = UsageCost::Max;
  r.include_deletions = true;
  r.stop_on_violation = false;
  r.shard_index = 2;
  r.shard_count = 7;
  r.agent_lo = 146;
  r.agent_hi = 219;
  r.moves = 123456789;
  r.scanned = 73;
  r.width = DistWidth::U8;
  r.width_fallbacks = 3;
  if (with_witness) {
    Deviation dev;
    dev.swap = {150, 7, 300};
    dev.cost_before = 9;
    dev.cost_after = 8;
    dev.kind = Deviation::Kind::ImprovingSwap;
    r.best = dev;
  }
  return r;
}

/// Byte-level equality through the canonical encoding — if two results
/// serialize identically they are identical in every field.
void expect_same_shard(const ShardResult& a, const ShardResult& b) {
  EXPECT_EQ(shard_to_binary(a), shard_to_binary(b));
}

TEST(CertifyWire, BinaryRoundTrip) {
  for (const bool witness : {false, true}) {
    const ShardResult original = sample_shard(witness);
    const std::string bytes = shard_to_binary(original);
    EXPECT_EQ(bytes.substr(0, 8), kShardWireMagic);
    expect_same_shard(shard_from_binary(bytes), original);
    expect_same_shard(shard_from_bytes(bytes), original);
  }
}

TEST(CertifyWire, JsonRoundTrip) {
  for (const bool witness : {false, true}) {
    const ShardResult original = sample_shard(witness);
    const std::string text = shard_to_json(original);
    expect_same_shard(shard_from_json(text), original);
    expect_same_shard(shard_from_bytes(text), original);
  }
}

TEST(CertifyWire, ExtremeCostsSurviveBothEncodings) {
  // kInfCost-level u64s must round-trip exactly (JSON numbers are parsed
  // with full 64-bit precision by our own reader).
  ShardResult r = sample_shard(true);
  r.best->cost_before = kInfCost;
  r.best->cost_after = kInfCost - 1;
  r.moves = 0xFFFFFFFFFFFFFFFFull;
  expect_same_shard(shard_from_binary(shard_to_binary(r)), r);
  expect_same_shard(shard_from_json(shard_to_json(r)), r);
}

TEST(CertifyWire, EveryBinaryTruncationThrows) {
  const std::string bytes = shard_to_binary(sample_shard(true));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)shard_from_binary(bytes.substr(0, len)), std::invalid_argument)
        << "prefix length " << len;
  }
}

TEST(CertifyWire, EveryBinaryBitFlipThrows) {
  const std::string bytes = shard_to_binary(sample_shard(true));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_THROW((void)shard_from_bytes(corrupt), std::invalid_argument) << "byte " << i;
  }
}

TEST(CertifyWire, JsonValueTamperingIsCaughtByChecksum) {
  const std::string text = shard_to_json(sample_shard(true));
  // Flip one digit of the moves field: still perfectly valid JSON, but the
  // re-encoded body no longer matches the embedded checksum.
  const std::string needle = "\"moves\": \"123456789";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  std::string tampered = text;
  tampered[pos + needle.size() - 1] = '0';
  EXPECT_THROW((void)shard_from_json(tampered), std::invalid_argument);
}

TEST(CertifyWire, JsonRejectsUnsupportedVersionAndForeignDocuments) {
  std::string text = shard_to_json(sample_shard(false));
  const std::size_t pos = text.find("\"version\": 1");
  ASSERT_NE(pos, std::string::npos);
  std::string wrong_version = text;
  wrong_version[pos + 11] = '2';
  EXPECT_THROW((void)shard_from_json(wrong_version), std::invalid_argument);
  EXPECT_THROW((void)shard_from_bytes("{\"format\": \"something-else\"}"),
               std::invalid_argument);
  EXPECT_THROW((void)shard_from_bytes(""), std::invalid_argument);
  EXPECT_THROW((void)shard_from_bytes("not a shard at all"), std::invalid_argument);
}

TEST(CertifyWire, ShardFileRoundTripBothFormats) {
  const ShardResult original = sample_shard(true);
  for (const ShardWireFormat format : {ShardWireFormat::Binary, ShardWireFormat::Json}) {
    const std::string path = testing::TempDir() + "/bncg_wire_test.shard";
    write_shard_file(path, original, format);
    expect_same_shard(read_shard_file(path), original);
  }
  EXPECT_THROW((void)read_shard_file(testing::TempDir() + "/bncg_wire_missing.shard"),
               std::runtime_error);
}

TEST(GraphFingerprint, InsertionOrderIndependentAndStructureSensitive) {
  Graph a(5);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  a.add_edge(3, 4);
  Graph b(5);
  b.add_edge(3, 4);
  b.add_edge(1, 2);
  b.add_edge(0, 1);
  EXPECT_EQ(graph_fingerprint(a), graph_fingerprint(b));
  Graph c = a;
  c.add_edge(0, 4);
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(c));
  EXPECT_NE(graph_fingerprint(Graph(5)), graph_fingerprint(Graph(6)));
}

// ---------------------------------------------------------------- merging

[[nodiscard]] std::vector<ShardResult> shards_of(const Graph& g, UsageCost model,
                                                 bool include_deletions,
                                                 const std::vector<Vertex>& cuts) {
  // Fresh engine per shard — each call emulates an independent worker
  // process with its own address space.
  std::vector<ShardResult> shards;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const SwapEngine engine(g);
    AgentRange range;
    range.lo = cuts[i];
    range.hi = cuts[i + 1];
    range.shard_index = static_cast<std::uint32_t>(i);
    range.shard_count = static_cast<std::uint32_t>(cuts.size() - 1);
    shards.push_back(certify_agent_range(engine, range, model, include_deletions));
  }
  return shards;
}

TEST(MergeShardResults, UnevenPartitionReproducesTheEngineCertificate) {
  Xoshiro256ss rng(0x511A);
  const Graph g = random_connected_gnm(40, 90, rng);
  for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
    const bool deletions = model == UsageCost::Max;
    const std::vector<ShardResult> shards =
        shards_of(g, model, deletions, {0, 3, 3, 17, 38, 40});
    const ShardedCertificate merged = merge_shard_results(shards);
    expect_same_certificate(merged.certificate, naive_certificate(g, model, deletions),
                            model == UsageCost::Sum ? "sum" : "max+del");
    EXPECT_EQ(merged.agents_scanned, g.num_vertices());
    EXPECT_EQ(merged.shards_used, shards.size());
  }
}

TEST(MergeShardResults, RefusesMismatchedOrIncompleteShardSets) {
  Xoshiro256ss rng(0x511B);
  const Graph g = random_connected_gnm(20, 40, rng);
  const std::vector<ShardResult> good = shards_of(g, UsageCost::Sum, false, {0, 10, 20});

  EXPECT_THROW((void)merge_shard_results({}), std::invalid_argument);

  std::vector<ShardResult> wrong_instance = good;
  wrong_instance[1].fingerprint ^= 1;
  EXPECT_THROW((void)merge_shard_results(wrong_instance), std::invalid_argument);

  std::vector<ShardResult> wrong_model = good;
  wrong_model[1].model = UsageCost::Max;
  EXPECT_THROW((void)merge_shard_results(wrong_model), std::invalid_argument);

  std::vector<ShardResult> duplicate_index = good;
  duplicate_index[1].shard_index = 0;
  EXPECT_THROW((void)merge_shard_results(duplicate_index), std::invalid_argument);

  std::vector<ShardResult> gap = good;
  gap[1].agent_lo = 11;  // agents 10..10 uncovered
  EXPECT_THROW((void)merge_shard_results(gap), std::invalid_argument);

  std::vector<ShardResult> missing_tail(good.begin(), good.begin() + 1);
  missing_tail[0].shard_count = 1;
  EXPECT_THROW((void)merge_shard_results(missing_tail), std::invalid_argument);

  std::vector<ShardResult> short_scan = good;
  short_scan[0].scanned -= 1;  // full mode must scan its whole range
  EXPECT_THROW((void)merge_shard_results(short_scan), std::invalid_argument);

  // Order independence: the same shards handed over in reverse still merge.
  std::vector<ShardResult> reversed = {good[1], good[0]};
  const ShardedCertificate merged = merge_shard_results(reversed);
  EXPECT_EQ(merged.agents_scanned, g.num_vertices());

  // stop_on_violation waives per-shard completeness, but a clean verdict
  // still requires every agent scanned: a partial, witness-free shard set
  // must not certify an equilibrium.
  std::vector<ShardResult> partial_clean = good;
  for (ShardResult& r : partial_clean) {
    r.stop_on_violation = true;
    r.best.reset();
  }
  partial_clean[0].scanned -= 1;
  EXPECT_THROW((void)merge_shard_results(partial_clean), std::invalid_argument);
}

TEST(CertifyAgentRange, FullRangeEqualsEngineCertify) {
  Xoshiro256ss rng(0x511C);
  const Graph g = random_connected_gnm(24, 50, rng);
  for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
    const bool deletions = model == UsageCost::Max;
    const SwapEngine engine(g);
    const EquilibriumCertificate want = naive_certificate(g, model, deletions);
    AgentRange range;
    range.hi = g.num_vertices();
    const ShardResult r = certify_agent_range(engine, range, model, deletions);
    expect_same_certificate(merge_shard_results({r}).certificate, want,
                            model == UsageCost::Sum ? "sum" : "max+del");
    EXPECT_EQ(r.fingerprint, graph_fingerprint(g));
    EXPECT_EQ(r.scanned, g.num_vertices());
  }
}

}  // namespace
}  // namespace bncg
