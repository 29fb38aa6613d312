// Skew-tolerant placement: knob validation, the hot-file promoter's
// hysteresis, replica fanout end to end, epoch-bump invalidation, and
// bounded-load spill under real concurrency.  The standing invariant in
// all of it: every knob defaults off and the off-state is bit-for-bit
// the seed's behaviour — checked here via the stats surface.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/popularity.hpp"

namespace ftc::cluster {
namespace {

using namespace std::chrono_literals;

ClusterConfig skew_config(std::uint32_t nodes) {
  ClusterConfig config;
  config.node_count = nodes;
  config.client.mode = FtMode::kHashRingRecache;
  config.client.rpc_timeout = 2000ms;
  config.client.timeout_limit = 2;
  config.client.vnodes_per_node = 50;
  config.server.async_data_mover = false;
  config.server.cache_capacity_bytes = 64 << 20;
  return config;
}

// --- validate() rejections -------------------------------------------------

TEST(SkewValidation, BoundedLoadRequiresRingMode) {
  HvacClientConfig config;
  config.mode = FtMode::kPfsRedirect;
  config.bounded_load = true;
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(SkewValidation, RejectsCAtOrBelowOne) {
  HvacClientConfig config;
  config.mode = FtMode::kHashRingRecache;
  config.bounded_load = true;
  config.bounded_load_c = 1.0;
  EXPECT_FALSE(config.validate().is_ok());
  config.bounded_load_c = 0.5;
  EXPECT_FALSE(config.validate().is_ok());
  config.bounded_load_c = 1.25;
  EXPECT_TRUE(config.validate().is_ok());
}

TEST(SkewValidation, HotFanoutKnobBounds) {
  HvacClientConfig config;
  config.mode = FtMode::kHashRingRecache;
  config.hot_fanout = true;

  config.hot_replica_fanout = 1;  // 1 is just the plain single owner
  EXPECT_FALSE(config.validate().is_ok());
  config.hot_replica_fanout = 5;
  EXPECT_FALSE(config.validate(/*cluster_size=*/4).is_ok());
  config.hot_replica_fanout = 2;

  config.hot_demote_threshold = config.hot_promote_threshold;  // no band
  EXPECT_FALSE(config.validate().is_ok());
  config.hot_demote_threshold = config.hot_promote_threshold / 4;

  EXPECT_TRUE(config.validate(/*cluster_size=*/4).is_ok());
}

TEST(SkewValidation, ServerLoadReportAlphaBounds) {
  HvacServerConfig config;
  config.report_load = true;
  config.load_report_alpha = 0.0;
  EXPECT_FALSE(config.validate().is_ok());
  config.load_report_alpha = 2.0;
  EXPECT_FALSE(config.validate().is_ok());
  config.load_report_alpha = 0.2;
  EXPECT_TRUE(config.validate().is_ok());
}

// --- promoter hysteresis ---------------------------------------------------

TEST(HotFilePromoterTest, PromotesOnceAtThreshold) {
  HotFilePromoter promoter({.top_k = 8,
                            .promote_threshold = 8.0,
                            .demote_threshold = 3.0,
                            .decay_interval = 1 << 20});
  int promotions = 0;
  for (int i = 0; i < 20; ++i) {
    if (promoter.record("A") == HotFilePromoter::Transition::kPromoted) {
      ++promotions;
    }
  }
  EXPECT_EQ(promotions, 1);
  EXPECT_TRUE(promoter.is_promoted("A"));
  EXPECT_EQ(promoter.promoted_count(), 1u);
}

TEST(HotFilePromoterTest, DeadBandAbsorbsDecayWithoutFlapping) {
  // Heat halves every 16 accesses.  A is pumped to ~8 then left to cool:
  // the first halving lands it mid-band (promoted must persist — that IS
  // the hysteresis), a later one crosses demote_threshold and retires it
  // exactly once.
  HotFilePromoter promoter({.top_k = 64,
                            .promote_threshold = 8.0,
                            .demote_threshold = 3.0,
                            .decay_interval = 16});
  for (int i = 0; i < 8; ++i) promoter.record("A");
  ASSERT_TRUE(promoter.is_promoted("A"));

  bool seen_mid_band = false;
  std::vector<std::string> demoted;
  for (int filler = 0; filler < 64 && demoted.empty(); ++filler) {
    promoter.record("cold_" + std::to_string(filler));
    const double heat = promoter.heat("A");
    if (heat > 3.0 && heat < 8.0) {
      seen_mid_band = true;
      EXPECT_TRUE(promoter.is_promoted("A"))
          << "demoted inside the dead band at heat " << heat;
    }
    demoted = promoter.take_demotions();
  }
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0], "A");
  EXPECT_TRUE(seen_mid_band);
  EXPECT_FALSE(promoter.is_promoted("A"));
  // Idempotent: the demotion was consumed.
  EXPECT_TRUE(promoter.take_demotions().empty());

  // A still-hot access pattern re-promotes — the cycle is promote /
  // cool / demote / re-promote, never flapping inside the band.
  int repromotions = 0;
  for (int i = 0; i < 12; ++i) {
    if (promoter.record("A") == HotFilePromoter::Transition::kPromoted) {
      ++repromotions;
    }
  }
  EXPECT_EQ(repromotions, 1);
}

TEST(HotFilePromoterTest, InvalidateAllKeepsHeat) {
  HotFilePromoter promoter({.top_k = 8,
                            .promote_threshold = 4.0,
                            .demote_threshold = 1.0,
                            .decay_interval = 1 << 20});
  for (int i = 0; i < 4; ++i) promoter.record("A");
  ASSERT_TRUE(promoter.is_promoted("A"));
  const auto dropped = promoter.invalidate_all();
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], "A");
  EXPECT_FALSE(promoter.is_promoted("A"));
  // Heat survived the invalidation, so one more access re-promotes.
  EXPECT_EQ(promoter.record("A"), HotFilePromoter::Transition::kPromoted);
}

// --- end-to-end fanout -----------------------------------------------------

TEST(HotFanout, PromotionReplicatesToRingSuccessors) {
  ClusterConfig config = skew_config(4);
  config.server.report_load = true;
  config.client.hot_fanout = true;
  config.client.hot_replica_fanout = 2;
  config.client.hot_promote_threshold = 8.0;
  config.client.hot_demote_threshold = 2.0;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(8, 64);
  cluster.warm_caches(paths);

  auto& client = cluster.client(0);
  const std::string& hot = paths[0];
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(client.read_file(hot).is_ok());
  }
  EXPECT_TRUE(client.file_is_hot(hot));
  const auto stats = client.stats_snapshot();
  EXPECT_EQ(stats.hot_promotions, 1u);

  // The async kPut fanout lands shortly after the promotion-triggering
  // read; once it does, two distinct servers hold the file.
  int holders = 0;
  for (int attempt = 0; attempt < 200 && holders < 2; ++attempt) {
    holders = 0;
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      if (cluster.server(n).has_cached(hot)) ++holders;
    }
    if (holders < 2) std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(holders, 2);
}

TEST(HotFanout, RingChangeInvalidatesPromotions) {
  ClusterConfig config = skew_config(4);
  config.server.report_load = true;
  config.client.hot_fanout = true;
  config.client.hot_replica_fanout = 2;
  config.client.hot_promote_threshold = 8.0;
  config.client.hot_demote_threshold = 2.0;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(8, 64);
  cluster.warm_caches(paths);

  auto& client = cluster.client(0);
  const std::string& hot = paths[0];
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(client.read_file(hot).is_ok());
  }
  ASSERT_TRUE(client.file_is_hot(hot));

  // Elastic scale-up bumps the client's placement generation; the next
  // access notices and retires every promotion wholesale.
  cluster.add_node();
  ASSERT_TRUE(client.read_file(paths[1]).is_ok());
  const auto stats = client.stats_snapshot();
  EXPECT_GE(stats.hot_invalidations, 1u);
  // The file may legitimately re-promote afterwards (heat is kept), but
  // the stale replica set was torn down at the bump.
}

TEST(HotFanout, LegacyConfigStatsStayZeroAgainstReportingServers) {
  // Servers piggyback load hints, but a client with every skew knob off
  // must not even count them — its stats surface is the seed's.
  ClusterConfig config = skew_config(4);
  config.server.report_load = true;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(8, 64);
  cluster.warm_caches(paths);
  for (const auto& path : paths) {
    ASSERT_TRUE(cluster.client(0).read_file(path).is_ok());
  }
  const auto stats = cluster.client(0).stats_snapshot();
  EXPECT_EQ(stats.load_hints_observed, 0u);
  EXPECT_EQ(stats.spilled_reads, 0u);
  EXPECT_EQ(stats.load_spread_reads, 0u);
  EXPECT_EQ(stats.hot_promotions, 0u);
  EXPECT_EQ(stats.hot_demotions, 0u);
  EXPECT_EQ(stats.hot_invalidations, 0u);
}

// --- bounded-load spill under concurrency ----------------------------------

TEST(BoundedLoadSpill, ConcurrentHotspotSpillsAndAllReadsSucceed) {
  ClusterConfig config = skew_config(4);
  config.server.report_load = true;
  config.client.bounded_load = true;
  config.client.bounded_load_c = 1.25;
  Cluster cluster(config);
  const auto paths = cluster.stage_dataset(8, 64);
  cluster.warm_caches(paths);
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    cluster.transport().set_extra_latency(n, 3ms);
  }

  // All four clients hammer one file (its owner's queue grows, and the
  // hints report it) with occasional other reads so each estimator
  // observes at least two nodes.
  const std::string& hot = paths[0];
  std::vector<std::uint64_t> failures(cluster.node_count(), 0);
  std::vector<std::thread> workers;
  for (NodeId t = 0; t < cluster.node_count(); ++t) {
    workers.emplace_back([&, t] {
      auto& client = cluster.client(t);
      for (int i = 0; i < 120; ++i) {
        const std::string& path =
            (i % 4 == 3) ? paths[1 + (i % (paths.size() - 1))] : hot;
        if (!client.read_file(path).is_ok()) ++failures[t];
      }
    });
  }
  for (auto& w : workers) w.join();

  std::uint64_t failed = 0, spilled = 0, hints = 0;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    failed += failures[n];
    const auto stats = cluster.client(n).stats_snapshot();
    spilled += stats.spilled_reads;
    hints += stats.load_hints_observed;
  }
  // Spill is an optimization, never a correctness dependency: every read
  // must succeed whether or not it spilled.
  EXPECT_EQ(failed, 0u);
  EXPECT_GT(hints, 0u);
  // Under a sustained hotspot with queue-depth hints flowing, at least
  // some reads must route past the saturated primary.
  EXPECT_GT(spilled, 0u);
}

}  // namespace
}  // namespace ftc::cluster
