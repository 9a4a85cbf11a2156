// The region store's shared groups: pinned entries, stats and distinct alike,
// refreshed by incremental waves, and their exemption from eviction.
#include "src/service/region_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/net/topology.hpp"

namespace sensornet::service {
namespace {

constexpr Value kBound = 1000;
constexpr Value kDelta = 4;
constexpr std::uint32_t kHorizon = 8;
/// An ERROR no bracket fails: probe() then returns every bracket.
constexpr double kAnyError = std::numeric_limits<double>::infinity();

/// What a collection must return: the bundle computed directly from the
/// installed items, no network involved.
StatsBundle direct_bundle(const sim::Network& net,
                          const query::RegionSignature& region) {
  StatsBundle b;
  const Value margin = static_cast<Value>(kHorizon) * kDelta;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    for (const Value v : net.items(u)) {
      if (region.whole_domain) {
        b.core.observe(v);
        continue;
      }
      if (v >= region.lo && v <= region.hi) b.core.observe(v);
      if (v >= region.lo + margin && v <= region.hi - margin)
        b.inner.observe(v);
      if (v >= region.lo - margin && v <= region.hi + margin)
        b.outer.observe(v);
    }
  }
  if (region.whole_domain) {
    b.inner = b.core;
    b.outer = b.core;
  }
  return b;
}

struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  RegionStore store;

  explicit Fixture(std::uint64_t seed = 7)
      : net(net::make_grid(8, 8), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        store(net, tree, {kBound, kDelta, kHorizon}) {
    ValueSet vs(64);
    for (NodeId u = 0; u < 64; ++u) {
      vs[u] = static_cast<Value>((u * 37) % 200);
    }
    net.set_one_item_per_node(vs);
  }
};

TEST(RegionStore, GroupsDeduplicateByRegion) {
  Fixture f;
  const query::RegionSignature a{10, 50, false};
  const query::RegionSignature b{10, 60, false};
  EXPECT_EQ(f.store.pin_stats(a), f.store.pin_stats(a));
  EXPECT_NE(f.store.pin_stats(a), f.store.pin_stats(b));
  // Distinct groups key on (region, registers): exact and approximate
  // subscribers cannot share a wave.
  EXPECT_EQ(f.store.pin_distinct(a, 64),
            f.store.pin_distinct(a, 64));
  EXPECT_NE(f.store.pin_distinct(a, 64),
            f.store.pin_distinct(a, 0));
  EXPECT_EQ(f.store.stats().groups_created, 4u);
}

TEST(RegionStore, CollectionMatchesDirectComputation) {
  Fixture f;
  for (const query::RegionSignature region :
       {query::RegionSignature{0, kBound, true},
        query::RegionSignature{30, 120, false}}) {
    const GroupId g = f.store.pin_stats(region);
    EXPECT_EQ(f.store.collect(g, 0).bundle, direct_bundle(f.net, region));
  }
}

TEST(RegionStore, CollectIsIdempotentWithinEpoch) {
  Fixture f;
  const GroupId g =
      f.store.pin_stats(query::RegionSignature{0, kBound, true});
  f.store.collect(g, 0);
  const auto msgs = f.net.summary().total_messages;
  f.store.collect(g, 0);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
  EXPECT_EQ(f.store.stats().stats_waves, 1u);
}

TEST(RegionStore, QuiescentRecollectionIsFree) {
  Fixture f;
  const GroupId g =
      f.store.pin_stats(query::RegionSignature{0, kBound, true});
  const StatsBundle first = f.store.collect(g, 0).bundle;
  // Nothing changed: the next epoch's collection is answered entirely from
  // the parent-side partials — zero messages on the air.
  const auto msgs = f.net.summary().total_messages;
  const StatsBundle second = f.store.collect(g, 1).bundle;
  EXPECT_EQ(second, first);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
}

TEST(RegionStore, IncrementalCollectionDescendsOnlyDirtySubtrees) {
  Fixture f;
  const query::RegionSignature whole{0, kBound, true};
  const GroupId g = f.store.pin_stats(whole);
  f.store.collect(g, 0);
  const auto full_descents = f.store.stats().edges_descended;
  EXPECT_EQ(full_descents, 63u);  // first collection visits every edge

  // One sensor changes; only its root path (plus those nodes' request
  // edges) should be revisited.
  const NodeId changed = 63;
  f.net.update_item(changed, 0, f.net.items(changed)[0] + kDelta);
  const std::vector<NodeId> touched{changed};
  f.store.note_updates(touched, 1);
  const StatsBundle b = f.store.collect(g, 1).bundle;
  EXPECT_EQ(b, direct_bundle(f.net, whole));
  // Exactly the changed node's root path is re-requested: one edge per
  // level, every other subtree served from the parent-side partials.
  const auto incremental = f.store.stats().edges_descended - full_descents;
  EXPECT_EQ(incremental, f.tree.depth[changed]);
  EXPECT_GT(f.store.stats().edges_skipped, 0u);
}

TEST(RegionStore, MarksCoalescePerNodePerEpoch) {
  Fixture f;
  // Two sibling leaves under the same deep ancestor: their marks share the
  // common path, so total mark messages < sum of both depths.
  const std::vector<NodeId> touched{62, 63};
  f.store.note_updates(touched, 1);
  const std::uint64_t depth_sum = f.tree.depth[62] + f.tree.depth[63];
  EXPECT_LT(f.store.stats().mark_messages, depth_sum);
  EXPECT_GE(f.store.stats().mark_messages, f.tree.depth[63]);
}

TEST(RegionStore, RangedGroupPaysInstallBroadcastOnce) {
  Fixture f;
  const auto before = f.net.summary().total_messages;
  f.store.pin_stats(query::RegionSignature{30, 120, false});
  const auto after_first = f.net.summary().total_messages;
  EXPECT_EQ(after_first - before, 63u);  // one region install per node
  f.store.pin_stats(query::RegionSignature{30, 120, false});
  EXPECT_EQ(f.net.summary().total_messages, after_first);
}

TEST(RegionStore, DistinctCollectionsAnswerOverTheRegion) {
  Fixture f;
  const query::RegionSignature region{0, 99, false};
  const GroupId g = f.store.pin_distinct(region, /*registers=*/0);
  std::uint64_t expected = 0;
  {
    std::vector<Value> seen;
    for (NodeId u = 0; u < f.net.node_count(); ++u) {
      for (const Value v : f.net.items(u)) {
        if (v >= region.lo && v <= region.hi &&
            std::find(seen.begin(), seen.end(), v) == seen.end()) {
          seen.push_back(v);
        }
      }
    }
    expected = seen.size();
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(f.store.collect(g, 0).values.size()),
                   static_cast<double>(expected));
  // Idempotent within the epoch.
  const auto msgs = f.net.summary().total_messages;
  f.store.collect(g, 0);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
  EXPECT_EQ(f.store.stats().distinct_waves, 1u);
}

TEST(RegionStore, QuiescentDistinctRefreshIsFree) {
  Fixture f;
  for (const query::RegionSignature region :
       {query::RegionSignature{0, kBound, true},
        query::RegionSignature{30, 120, false}}) {
    const GroupId hll = f.store.pin_distinct(region, 64);
    const GroupId exact = f.store.pin_distinct(region, 0);
    const double estimate = f.store.collect(hll, 0).hll->estimate();
    const ValueSet values = f.store.collect(exact, 0).values;
    // Nothing changed: both groups refresh from their per-edge partials
    // alone, with zero messages on the air.
    const auto msgs = f.net.summary().total_messages;
    EXPECT_EQ(f.store.collect(hll, 1).hll->estimate(), estimate);
    EXPECT_EQ(f.store.collect(exact, 1).values, values);
    EXPECT_EQ(f.net.summary().total_messages, msgs);
  }
  EXPECT_EQ(f.store.stats().distinct_waves, 8u);
}

/// Bundle for a ranged region [lo, hi] with margin M over explicit values.
StatsBundle ranged_bundle(std::initializer_list<Value> vs, Value lo, Value hi,
                          Value margin = kHorizon * kDelta) {
  StatsBundle b;
  for (const Value v : vs) {
    if (v >= lo && v <= hi) b.core.observe(v);
    if (v >= lo + margin && v <= hi - margin) b.inner.observe(v);
    if (v >= lo - margin && v <= hi + margin) b.outer.observe(v);
  }
  return b;
}

TEST(RegionStore, PinnedRegionsOutliveRootOnlyChurn) {
  // Only root-only entries count against the capacity: a shared group's
  // entry keeps bracketing however many cube bundles come and go.
  Fixture f;
  RegionStore small(f.net, f.tree, {kBound, kDelta, kHorizon},
                    /*capacity=*/1);
  const query::RegionSignature pinned{30, 120, false};
  small.collect(small.pin_stats(pinned), 1);
  const query::RegionSignature r1{1, 10, false};
  const query::RegionSignature r2{2, 20, false};
  const query::RegionSignature r3{3, 30, false};
  small.store(r1, 1, ranged_bundle({5}, 1, 10));
  small.store(r2, 2, ranged_bundle({5}, 2, 20));
  small.store(r3, 3, ranged_bundle({5}, 3, 30));
  const auto count = [&](const query::RegionSignature& region) {
    return small.probe(region, query::AggregateKind::kCount, kAnyError, 3);
  };
  EXPECT_EQ(small.size(), 2u);
  EXPECT_FALSE(count(r1).has_value());
  EXPECT_FALSE(count(r2).has_value());
  EXPECT_TRUE(count(r3).has_value());
  ASSERT_TRUE(count(pinned).has_value());
  const RangeStats truth = direct_bundle(f.net, pinned).core;
  EXPECT_DOUBLE_EQ(count(pinned)->value, static_cast<double>(truth.count));
}

}  // namespace
}  // namespace sensornet::service
