// Property harness for the cross-process certification pipeline
// (`ctest -L property`):
//
//  * round-trip fuzz — random ShardResults survive both wire encodings
//    byte-exactly;
//  * corruption fuzz — randomly truncated or bit-flipped binary inputs
//    always throw; randomly mutated JSON inputs either throw or decode to
//    a result identical to the original (a mutation in insignificant
//    whitespace is semantically neutral) — never crash, never smuggle in
//    different values;
//  * merge parity — for ANY partition of the agent set into shards, each
//    certified by its own fresh SwapEngine (emulating separate worker
//    processes) and round-tripped through a randomly chosen wire encoding,
//    the merged certificate is bit-identical to the bncg::naive oracle and
//    to the in-process certify_sharded;
//  * guard soundness — cross-merging shards of two different instances
//    refuses.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "certificate_oracle.hpp"
#include "core/certify_sharded.hpp"
#include "core/certify_wire.hpp"
#include "core/swap_engine.hpp"
#include "gen/random.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"

namespace bncg {
namespace {

[[nodiscard]] ShardResult random_shard(Xoshiro256ss& rng) {
  ShardResult r;
  r.fingerprint = rng();
  r.n = 2 + static_cast<Vertex>(rng.below(1000));
  r.m = rng.below(100000);
  r.model = rng.below(2) == 0 ? UsageCost::Sum : UsageCost::Max;
  r.include_deletions = rng.below(2) == 0;
  r.stop_on_violation = rng.below(2) == 0;
  r.shard_count = 1 + static_cast<std::uint32_t>(rng.below(64));
  r.shard_index = static_cast<std::uint32_t>(rng.below(r.shard_count));
  r.agent_lo = static_cast<Vertex>(rng.below(r.n));
  r.agent_hi = r.agent_lo + static_cast<Vertex>(rng.below(r.n - r.agent_lo + 1));
  r.scanned = static_cast<Vertex>(rng.below(r.agent_hi - r.agent_lo + 1));
  r.moves = rng();
  r.width = rng.below(2) == 0 ? DistWidth::U8 : DistWidth::U16;
  r.width_fallbacks = rng.below(1000);
  if (r.agent_hi > r.agent_lo && rng.below(2) == 0) {
    Deviation dev;
    dev.swap.v = r.agent_lo + static_cast<Vertex>(rng.below(r.agent_hi - r.agent_lo));
    dev.swap.remove_w = static_cast<Vertex>(rng.below(r.n));
    dev.swap.add_w = static_cast<Vertex>(rng.below(r.n));
    dev.cost_before = rng();
    dev.cost_after = rng();
    dev.kind =
        rng.below(2) == 0 ? Deviation::Kind::ImprovingSwap : Deviation::Kind::NonCriticalDelete;
    r.best = dev;
  }
  return r;
}

TEST(WireFuzz, RoundTripBothEncodings) {
  Xoshiro256ss rng(0xF1E1D);
  for (int trial = 0; trial < 400; ++trial) {
    const ShardResult original = random_shard(rng);
    const std::string bytes = shard_to_binary(original);
    EXPECT_EQ(shard_to_binary(shard_from_binary(bytes)), bytes) << "trial " << trial;
    const std::string text = shard_to_json(original);
    EXPECT_EQ(shard_to_binary(shard_from_json(text)), bytes) << "trial " << trial;
    // Auto-detection picks the right decoder for both.
    EXPECT_EQ(shard_to_binary(shard_from_bytes(bytes)), bytes) << "trial " << trial;
    EXPECT_EQ(shard_to_binary(shard_from_bytes(text)), bytes) << "trial " << trial;
  }
}

TEST(WireFuzz, TruncatedOrCorruptedBinaryAlwaysThrows) {
  Xoshiro256ss rng(0xF1E2D);
  for (int trial = 0; trial < 200; ++trial) {
    const ShardResult original = random_shard(rng);
    const std::string bytes = shard_to_binary(original);
    // Random truncation.
    const std::size_t cut = rng.below(bytes.size());
    EXPECT_THROW((void)shard_from_binary(bytes.substr(0, cut)), std::invalid_argument)
        << "trial " << trial << " cut " << cut;
    // Random bit flip (never a no-op): the checksum, magic, or a range
    // check must reject it.
    std::string corrupt = bytes;
    const std::size_t pos = rng.below(corrupt.size());
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << rng.below(8)));
    EXPECT_THROW((void)shard_from_bytes(corrupt), std::invalid_argument)
        << "trial " << trial << " pos " << pos;
  }
}

TEST(WireFuzz, MutatedJsonThrowsOrDecodesIdentically) {
  Xoshiro256ss rng(0xF1E3D);
  for (int trial = 0; trial < 300; ++trial) {
    const ShardResult original = random_shard(rng);
    const std::string canonical = shard_to_binary(original);
    std::string text = shard_to_json(original);
    const std::size_t pos = rng.below(text.size());
    char replacement = static_cast<char>(rng.below(256));
    while (replacement == text[pos]) replacement = static_cast<char>(rng.below(256));
    text[pos] = replacement;
    try {
      const ShardResult decoded = shard_from_json(text);
      // The mutation parsed — it must have been semantically neutral
      // (whitespace, an equivalent spelling). Anything else is a checksum
      // or validation escape.
      EXPECT_EQ(shard_to_binary(decoded), canonical)
          << "trial " << trial << " pos " << pos << " byte "
          << static_cast<int>(static_cast<unsigned char>(replacement));
    } catch (const std::invalid_argument&) {
      // Clean rejection — the expected common case.
    }
  }
}

TEST(WireFuzz, AnyPartitionMergesToTheSingleProcessCertificate) {
  Xoshiro256ss rng(0xF1E4D);
  for (int trial = 0; trial < 40; ++trial) {
    const Vertex n = 8 + static_cast<Vertex>(rng.below(30));
    const Graph g = random_connected_gnm(n, n - 1 + rng.below(2 * n), rng);
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const bool deletions = model == UsageCost::Max;
      const EquilibriumCertificate want = naive_certificate(g, model, deletions);

      // Random partition: 1..6 shards with random (possibly empty) blocks.
      const std::size_t shard_count = 1 + rng.below(6);
      std::vector<Vertex> cuts = {0};
      for (std::size_t i = 1; i < shard_count; ++i) {
        cuts.push_back(static_cast<Vertex>(rng.below(n + 1)));
      }
      cuts.push_back(n);
      std::sort(cuts.begin(), cuts.end());

      std::vector<ShardResult> shards;
      for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        // One fresh engine per shard: nothing but the wire payload crosses
        // between "processes".
        const SwapEngine engine(g);
        AgentRange range;
        range.lo = cuts[i];
        range.hi = cuts[i + 1];
        range.shard_index = static_cast<std::uint32_t>(i);
        range.shard_count = static_cast<std::uint32_t>(shard_count);
        const ShardResult produced =
            certify_agent_range(engine, range, model, deletions);
        // Round-trip through a randomly chosen encoding before merging.
        shards.push_back(rng.below(2) == 0
                             ? shard_from_binary(shard_to_binary(produced))
                             : shard_from_json(shard_to_json(produced)));
      }
      // Workers report in arbitrary order; merge re-sorts by shard_index.
      for (std::size_t i = shards.size(); i > 1; --i) {
        std::swap(shards[i - 1], shards[rng.below(i)]);
      }

      const std::string ctx = "trial " + std::to_string(trial) +
                              (model == UsageCost::Sum ? " sum" : " max") + " shards " +
                              std::to_string(shard_count);
      const ShardedCertificate merged = merge_shard_results(shards);
      expect_same_certificate(merged.certificate, want, ctx + " vs naive");
      expect_same_certificate(merged.certificate,
                              certify_sharded(g, model, deletions).certificate,
                              ctx + " vs certify_sharded");
      EXPECT_EQ(merged.agents_scanned, n) << ctx;
    }
  }
}

TEST(WireFuzz, ShardsOfDifferentInstancesRefuseToMerge) {
  Xoshiro256ss rng(0xF1E5D);
  for (int trial = 0; trial < 20; ++trial) {
    const Vertex n = 10 + static_cast<Vertex>(rng.below(20));
    const Graph a = random_connected_gnm(n, 2 * n, rng);
    Graph b = a;
    // Perturb one edge — same n, same m, different structure.
    const auto edges = b.edges();
    const Edge& e = edges[rng.below(edges.size())];
    b.remove_edge(e.u, e.v);
    Vertex x = static_cast<Vertex>(rng.below(n)), y = static_cast<Vertex>(rng.below(n));
    while (x == y || b.has_edge(x, y)) {
      x = static_cast<Vertex>(rng.below(n));
      y = static_cast<Vertex>(rng.below(n));
    }
    b.add_edge(x, y);
    ASSERT_NE(graph_fingerprint(a), graph_fingerprint(b));

    const Vertex cut = n / 2;
    const auto make = [&](const Graph& g, std::uint32_t index, Vertex lo, Vertex hi) {
      const SwapEngine engine(g);
      AgentRange range;
      range.lo = lo;
      range.hi = hi;
      range.shard_index = index;
      range.shard_count = 2;
      return certify_agent_range(engine, range, UsageCost::Sum);
    };
    const std::vector<ShardResult> mixed = {make(a, 0, 0, cut), make(b, 1, cut, n)};
    EXPECT_THROW((void)merge_shard_results(mixed), std::invalid_argument) << "trial " << trial;
  }
}

}  // namespace
}  // namespace bncg
