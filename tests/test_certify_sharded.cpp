// Differential tests for the sharded certification driver
// (core/certify_sharded.hpp): under every shard count the full-mode
// certificate — verdict, witness, tie-breaks, move counts — must be
// bit-identical to the bncg::naive certifiers, the stop_on_violation fast
// path must agree on the verdict, and the auto shard count must follow the
// work-sized rule.
#include "core/certify_sharded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "certificate_oracle.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bncg {
namespace {

TEST(CertifySharded, MatchesEngineAndNaiveUnderEveryShardCount) {
  Xoshiro256ss rng(0xC0DE);
  for (int trial = 0; trial < 25; ++trial) {
    const Vertex n = 8 + static_cast<Vertex>(rng.below(25));
    const Graph g = random_connected_gnm(n, n - 1 + rng.below(2 * n), rng);
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      const bool deletions = model == UsageCost::Max;
      const EquilibriumCertificate want = naive_certificate(g, model, deletions);
      for (const std::size_t shards : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                       std::size_t{5}, std::size_t{64}}) {
        ShardedCertifyConfig config;
        config.shards = shards;
        const ShardedCertificate got = certify_sharded(g, model, deletions, config);
        const std::string ctx = "trial " + std::to_string(trial) + " shards " +
                                std::to_string(shards) +
                                (model == UsageCost::Sum ? " sum" : " max");
        expect_same_certificate(got.certificate, want, ctx + " vs naive");
        EXPECT_EQ(got.agents_scanned, n) << ctx;
        EXPECT_GE(got.shards_used, 1u) << ctx;
        if (shards != 0) EXPECT_EQ(got.shards_used, std::min<std::size_t>(shards, n)) << ctx;

        // Verdict-only fast path: deterministic verdict, possibly fewer
        // agents scanned on violating instances.
        config.stop_on_violation = true;
        const ShardedCertificate fast = certify_sharded(g, model, deletions, config);
        EXPECT_EQ(fast.certificate.is_equilibrium, want.is_equilibrium) << ctx << " stop";
        EXPECT_EQ(fast.certificate.witness.has_value(), !want.is_equilibrium) << ctx << " stop";
        if (want.is_equilibrium) {
          // Equilibria cannot abort early: every agent must have been scanned.
          EXPECT_EQ(fast.agents_scanned, n) << ctx << " stop";
        }
      }
    }
  }
}

TEST(CertifySharded, KnownEquilibriaCertify) {
  for (const auto& g : {star(12), complete(8)}) {
    const ShardedCertificate sum = certify_sharded(g, UsageCost::Sum);
    EXPECT_TRUE(sum.certificate.is_equilibrium);
  }
  // Double stars with ≥ 2 leaves per side are max equilibria (Section 2.2).
  for (const auto& g : {star(12), double_star(3, 3)}) {
    const ShardedCertificate max_cert =
        certify_sharded(g, UsageCost::Max, /*include_deletions=*/true);
    EXPECT_TRUE(max_cert.certificate.is_equilibrium);
  }
  const ShardedCertificate cyc =
      certify_sharded(cycle(9), UsageCost::Max, /*include_deletions=*/true);
  EXPECT_FALSE(cyc.certificate.is_equilibrium);
}

TEST(CertifySharded, LargeInstanceSmoke) {
  // One mid-size instance through the intended large-n configuration (auto
  // shards, auto width): parity with the naive certificate.
  Xoshiro256ss rng(0xBEEF);
  const Graph g = random_connected_gnm(300, 600, rng);
  for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
    const bool deletions = model == UsageCost::Max;
    const ShardedCertificate got = certify_sharded(g, model, deletions);
    expect_same_certificate(got.certificate, naive_certificate(g, model, deletions),
                            model == UsageCost::Sum ? "sum" : "max");
    EXPECT_EQ(got.width, DistWidth::U8);  // G(300, 600) sits far below the cap
  }
}

TEST(CertifySharded, AutoShardCountFollowsWork) {
  const std::size_t lanes = ThreadPool::global().size();
  // Every graph on n ≤ 6 vertices is one shard, run inline on the caller,
  // whatever the lane count; an explicit count is still honoured.
  for (const Graph& g : {path(2), star(5), complete(6)}) {
    for (const UsageCost model : {UsageCost::Sum, UsageCost::Max}) {
      EXPECT_EQ(certify_sharded(g, model).shards_used, 1u) << g.num_vertices();
    }
    ShardedCertifyConfig config;
    config.shards = 4;
    EXPECT_EQ(certify_sharded(g, UsageCost::Sum, false, config).shards_used,
              std::min<std::size_t>(4, g.num_vertices()));
  }
  // G(1024, 2048) carries work for 4 shards per lane (16 on 4 lanes).
  Xoshiro256ss rng(0x5A4D);
  const Graph g = random_connected_gnm(1024, 2048, rng);
  EXPECT_EQ(certify_sharded(g, UsageCost::Sum).shards_used, 4 * lanes);
}

}  // namespace
}  // namespace bncg
