// VersionedRing / RingView: epoch semantics, snapshot immutability, event
// deltas, and the owner-chain distinctness guarantee over epoch'd views.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "membership/ring_view.hpp"
#include "ring/consistent_hash_ring.hpp"

namespace ftc::membership {
namespace {

ring::RingConfig make_ring_config() {
  ring::RingConfig config;
  config.vnodes_per_node = 50;
  config.seed = 7;
  return config;
}

std::vector<NodeId> iota_members(NodeId count) {
  std::vector<NodeId> members;
  for (NodeId n = 0; n < count; ++n) members.push_back(n);
  return members;
}

TEST(VersionedRing, EpochZeroMatchesIndependentlyBuiltRing) {
  // The paper's clients build rings with no coordination service; the
  // membership layer must preserve that property at epoch 0 so enabling
  // it does not reshuffle a warm cluster.
  VersionedRing versioned(make_ring_config(), iota_members(4), 16);
  const ring::ConsistentHashRing reference(4, make_ring_config());

  auto view = versioned.view();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch(), 0u);
  EXPECT_EQ(versioned.epoch(), 0u);
  EXPECT_EQ(view->fingerprint(), reference.fingerprint());
  EXPECT_EQ(view->node_count(), 4u);
  EXPECT_EQ(view->owner("/lustre/some/file"), reference.owner("/lustre/some/file"));
}

TEST(VersionedRing, ServingSetChangesBumpEpochAndPublishNewView) {
  VersionedRing versioned(make_ring_config(), iota_members(4), 16);
  auto epoch0 = versioned.view();

  auto event = versioned.apply(RingEventType::kProbation, 2, 5);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->epoch, 1u);
  EXPECT_EQ(event->type, RingEventType::kProbation);
  EXPECT_EQ(event->node, 2u);
  EXPECT_EQ(event->incarnation, 5u);

  auto epoch1 = versioned.view();
  EXPECT_EQ(epoch1->epoch(), 1u);
  EXPECT_FALSE(epoch1->contains(2));
  EXPECT_EQ(epoch1->node_count(), 3u);

  // The old snapshot is immutable: it still shows node 2 serving.
  EXPECT_EQ(epoch0->epoch(), 0u);
  EXPECT_TRUE(epoch0->contains(2));
  EXPECT_EQ(epoch0->node_count(), 4u);
}

TEST(VersionedRing, UnheldRingChangesInPlaceHeldRingIsCopied) {
  VersionedRing versioned(make_ring_config(), iota_members(4), 16);
  const ring::ConsistentHashRing* unheld = &versioned.view()->ring();
  ASSERT_TRUE(versioned.apply(RingEventType::kProbation, 1, 0).has_value());
  // No reader held the view, so no copy was made.
  EXPECT_EQ(&versioned.view()->ring(), unheld);
  EXPECT_EQ(versioned.view()->epoch(), 1u);
  EXPECT_FALSE(versioned.view()->contains(1));

  const auto held = versioned.view();
  ASSERT_TRUE(versioned.apply(RingEventType::kProbation, 2, 0).has_value());
  EXPECT_NE(&versioned.view()->ring(), &held->ring());
  EXPECT_EQ(held->epoch(), 1u);
  EXPECT_TRUE(held->contains(2));
  EXPECT_FALSE(versioned.view()->contains(2));
}

TEST(VersionedRing, ViewHeldAcrossAdoptEpochKeepsItsServingSet) {
  // adopt_epoch publishes a new view over the same ring, so a reader of
  // the older view still shares the ring while the current view is free.
  VersionedRing versioned(make_ring_config(), iota_members(4), 16);
  const auto before_adopt = versioned.view();
  versioned.adopt_epoch(3);
  ASSERT_TRUE(versioned.apply(RingEventType::kProbation, 0, 0).has_value());
  EXPECT_TRUE(before_adopt->contains(0));
  EXPECT_EQ(before_adopt->node_count(), 4u);
  EXPECT_FALSE(versioned.view()->contains(0));
}

TEST(VersionedRing, RedundantEventsBurnNoEpoch) {
  VersionedRing versioned(make_ring_config(), iota_members(3), 16);
  // Joining a node that is already on the ring: no-op.
  EXPECT_FALSE(versioned.apply(RingEventType::kJoin, 1, 0).has_value());
  EXPECT_EQ(versioned.epoch(), 0u);
  ASSERT_TRUE(versioned.apply(RingEventType::kConfirmFailed, 1, 0).has_value());
  EXPECT_EQ(versioned.epoch(), 1u);
  // Removing it again (duplicate confirm from another gossip path): no-op.
  EXPECT_FALSE(versioned.apply(RingEventType::kProbation, 1, 0).has_value());
  EXPECT_FALSE(versioned.apply(RingEventType::kConfirmFailed, 1, 0).has_value());
  EXPECT_EQ(versioned.epoch(), 1u);
}

TEST(VersionedRing, MinEpochAdoptsPeerLabels) {
  // Replaying a delta from a peer that is several epochs ahead must land
  // on the peer's label, not local+1 — otherwise collapsed histories make
  // labels diverge even when serving sets agree.
  VersionedRing versioned(make_ring_config(), iota_members(5), 16);
  auto event = versioned.apply(RingEventType::kProbation, 3, 0, /*min_epoch=*/7);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->epoch, 7u);
  EXPECT_EQ(versioned.epoch(), 7u);
  // The next local event continues from the adopted label.
  auto next = versioned.apply(RingEventType::kProbation, 4, 0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->epoch, 8u);
}

TEST(VersionedRing, AdoptEpochRelabelsWithoutRingChange) {
  VersionedRing versioned(make_ring_config(), iota_members(3), 16);
  ASSERT_TRUE(versioned.apply(RingEventType::kProbation, 0, 0).has_value());
  const std::uint64_t fingerprint = versioned.view()->fingerprint();

  versioned.adopt_epoch(5);
  EXPECT_EQ(versioned.epoch(), 5u);
  EXPECT_EQ(versioned.view()->epoch(), 5u);
  EXPECT_EQ(versioned.view()->fingerprint(), fingerprint);

  // Never moves backwards.
  versioned.adopt_epoch(2);
  EXPECT_EQ(versioned.epoch(), 5u);
}

TEST(VersionedRing, DeltaSinceReturnsMissedEventsInOrder) {
  VersionedRing versioned(make_ring_config(), iota_members(4), 16);
  ASSERT_TRUE(versioned.apply(RingEventType::kProbation, 1, 2).has_value());
  ASSERT_TRUE(versioned.apply(RingEventType::kReinstate, 1, 3).has_value());
  ASSERT_TRUE(versioned.apply(RingEventType::kConfirmFailed, 2, 0).has_value());

  auto delta = versioned.delta_since(0);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 3u);
  EXPECT_EQ((*delta)[0].epoch, 1u);
  EXPECT_EQ((*delta)[0].type, RingEventType::kProbation);
  EXPECT_EQ((*delta)[1].epoch, 2u);
  EXPECT_EQ((*delta)[1].type, RingEventType::kReinstate);
  EXPECT_EQ((*delta)[2].epoch, 3u);

  auto partial = versioned.delta_since(2);
  ASSERT_TRUE(partial.has_value());
  ASSERT_EQ(partial->size(), 1u);
  EXPECT_EQ((*partial)[0].node, 2u);

  auto empty = versioned.delta_since(3);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(VersionedRing, AdoptedLabelGapForcesFullSyncBelowFloor) {
  // adopt_epoch jumps the label WITHOUT writing log events for the gap, so
  // a requester whose epoch falls inside the gap must get a full sync —
  // serving the (empty-looking) delta would silently fast-forward it past
  // transitions it never saw.  This is the large-gap boundary after a
  // partition heals: the minority adopts the majority's label in one hop.
  VersionedRing versioned(make_ring_config(), iota_members(4), 16);
  ASSERT_TRUE(versioned.apply(RingEventType::kProbation, 1, 0).has_value());
  versioned.adopt_epoch(10);
  EXPECT_EQ(versioned.sync_floor(), 10u);

  // Below the floor: not delta-answerable, even though the log still
  // physically holds the epoch-1 event.
  EXPECT_FALSE(versioned.delta_since(0).has_value());
  EXPECT_FALSE(versioned.delta_since(1).has_value());
  EXPECT_FALSE(versioned.delta_since(9).has_value());

  // At the floor: answerable, and currently empty (nothing happened since
  // the adoption).
  auto at_floor = versioned.delta_since(10);
  ASSERT_TRUE(at_floor.has_value());
  EXPECT_TRUE(at_floor->empty());

  // Events after the adoption are delta-answerable from the floor on.
  ASSERT_TRUE(versioned.apply(RingEventType::kProbation, 2, 0).has_value());
  auto after = versioned.delta_since(10);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ((*after)[0].epoch, 11u);
}

TEST(VersionedRing, MinEpochReplayAlsoRaisesFloor) {
  // Adopting a peer label through apply(min_epoch) collapses history the
  // same way adopt_epoch does: the skipped labels must not be
  // delta-answerable.
  VersionedRing versioned(make_ring_config(), iota_members(5), 16);
  ASSERT_TRUE(
      versioned.apply(RingEventType::kProbation, 3, 0, /*min_epoch=*/7)
          .has_value());
  EXPECT_EQ(versioned.epoch(), 7u);
  // A requester at epoch 3 sits inside the collapsed gap 1..6: the log
  // cannot prove what it missed, so no delta.
  EXPECT_FALSE(versioned.delta_since(3).has_value());
}

TEST(VersionedRing, TruncatedLogForcesFullSync) {
  // Capacity 2: after 4 events, epochs 1 and 2 have been evicted, so a
  // requester at epoch 0 or 1 cannot be answered with a delta.
  VersionedRing versioned(make_ring_config(), iota_members(6), /*log=*/2);
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_TRUE(versioned.apply(RingEventType::kProbation, n, 0).has_value());
  }
  EXPECT_FALSE(versioned.delta_since(0).has_value());
  EXPECT_FALSE(versioned.delta_since(1).has_value());
  auto tail = versioned.delta_since(2);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->size(), 2u);
}

TEST(EventLog, SinceSemanticsAndEviction) {
  EventLog log(3);
  for (std::uint64_t e = 1; e <= 5; ++e) {
    log.append({e, RingEventType::kProbation, static_cast<NodeId>(e), 0});
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.evicted_through(), 2u);
  EXPECT_FALSE(log.since(0).has_value());
  EXPECT_FALSE(log.since(1).has_value());
  auto from2 = log.since(2);
  ASSERT_TRUE(from2.has_value());
  EXPECT_EQ(from2->size(), 3u);
  auto from5 = log.since(5);
  ASSERT_TRUE(from5.has_value());
  EXPECT_TRUE(from5->empty());
}

// Satellite 3: owner_chain over an epoch'd view must return DISTINCT
// physical nodes even when adjacent virtual nodes belong to the same
// server — replicas on the same box would die together.
TEST(RingView, OwnerChainReturnsDistinctPhysicalNodes) {
  // Few nodes x many vnodes maximizes adjacent same-owner vnode pairs.
  ring::RingConfig config;
  config.vnodes_per_node = 200;
  config.seed = 11;
  VersionedRing versioned(config, iota_members(3), 16);
  auto view = versioned.view();

  for (int i = 0; i < 500; ++i) {
    const std::string key = "/lustre/ds/file_" + std::to_string(i);
    auto chain = view->owner_chain(key, 3);
    ASSERT_EQ(chain.size(), 3u) << key;
    const std::set<NodeId> distinct(chain.begin(), chain.end());
    EXPECT_EQ(distinct.size(), chain.size()) << key;
    EXPECT_EQ(chain.front(), view->owner(key)) << key;
  }
}

TEST(RingView, OwnerChainStaysDistinctAcrossEpochs) {
  ring::RingConfig config;
  config.vnodes_per_node = 200;
  config.seed = 11;
  VersionedRing versioned(config, iota_members(4), 16);
  ASSERT_TRUE(versioned.apply(RingEventType::kProbation, 1, 0).has_value());
  auto view = versioned.view();
  ASSERT_EQ(view->epoch(), 1u);

  for (int i = 0; i < 500; ++i) {
    const std::string key = "/lustre/ds/file_" + std::to_string(i);
    auto chain = view->owner_chain(key, 2);
    ASSERT_EQ(chain.size(), 2u) << key;
    EXPECT_NE(chain[0], chain[1]) << key;
    EXPECT_NE(chain[0], 1u) << key;  // removed node never owns
    EXPECT_NE(chain[1], 1u) << key;
  }
}

TEST(RingView, OwnerExcludingSkipsSuspectsWithoutEpochBurn) {
  VersionedRing versioned(make_ring_config(), iota_members(4), 16);
  auto view = versioned.view();
  bool skipped_any = false;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "/lustre/ds/file_" + std::to_string(i);
    const NodeId owner = view->owner(key);
    const NodeId rerouted =
        view->owner_excluding(key, [owner](NodeId n) { return n == owner; });
    EXPECT_NE(rerouted, owner);
    EXPECT_NE(rerouted, kInvalidNode);
    skipped_any = true;
  }
  EXPECT_TRUE(skipped_any);
  // Suspicion-style exclusion is per-lookup: the view's epoch is untouched.
  EXPECT_EQ(versioned.epoch(), 0u);
}

TEST(RingEvent, TypeNamesAndPolarity) {
  EXPECT_STREQ(ring_event_type_name(RingEventType::kJoin), "join");
  EXPECT_STREQ(ring_event_type_name(RingEventType::kProbation), "probation");
  EXPECT_STREQ(ring_event_type_name(RingEventType::kConfirmFailed),
               "confirm_failed");
  EXPECT_STREQ(ring_event_type_name(RingEventType::kReinstate), "reinstate");
  EXPECT_TRUE(ring_event_adds(RingEventType::kJoin));
  EXPECT_TRUE(ring_event_adds(RingEventType::kReinstate));
  EXPECT_FALSE(ring_event_adds(RingEventType::kProbation));
  EXPECT_FALSE(ring_event_adds(RingEventType::kConfirmFailed));
}

}  // namespace
}  // namespace ftc::membership
