#include "src/service/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/count_distinct.hpp"
#include "src/net/topology.hpp"
#include "src/proto/item_view.hpp"
#include "src/query/planner.hpp"

namespace sensornet::service {
namespace {

constexpr Value kBound = 1000;

struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  QueryService svc;
  std::vector<Value> mirror;  // ground truth the simulator also holds

  explicit Fixture(ServiceConfig cfg = {}, std::uint64_t seed = 11)
      : net(net::make_grid(6, 6), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        svc(query::Deployment{net, tree, kBound}, cfg) {
    mirror.resize(36);
    for (NodeId u = 0; u < 36; ++u) {
      mirror[u] = static_cast<Value>((u * 53) % 300);
    }
    net.set_one_item_per_node(mirror);
  }

  /// Drifts node `u` by `delta` (clamped to the model) and returns the
  /// update record.
  SensorUpdate drift(NodeId u, Value delta) {
    const Value v =
        std::clamp<Value>(mirror[u] + delta, 0, kBound);
    mirror[u] = v;
    return SensorUpdate{u, v};
  }

  double exact(const std::string& agg, Value lo, Value hi) const {
    RangeStats rs;
    for (const Value v : mirror) {
      if (v >= lo && v <= hi) rs.observe(v);
    }
    if (agg == "COUNT") return static_cast<double>(rs.count);
    if (agg == "SUM") return static_cast<double>(rs.sum);
    if (agg == "MIN") return static_cast<double>(rs.min);
    if (agg == "MAX") return static_cast<double>(rs.max);
    return static_cast<double>(rs.sum) / static_cast<double>(rs.count);
  }
};

TEST(QueryService, OneShotQueriesAnswerAtAdmission) {
  Fixture f;
  const auto r = f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 50 AND 250");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().continuous);
  ASSERT_TRUE(r.value().answer.has_value());
  const Answer& a = *r.value().answer;
  EXPECT_DOUBLE_EQ(a.value, f.exact("SUM", 50, 250));
  EXPECT_TRUE(a.exact);
  EXPECT_FALSE(a.from_cache);
  EXPECT_EQ(f.svc.live_queries(), 0u);  // one-shots do not register
}

TEST(QueryService, AdmissionForwardsPinnedDiagnostics) {
  Fixture f;
  const auto bad_parse = f.svc.submit("SELECT COUNT(v) FROM s EVERY 0 EPOCHS");
  ASSERT_FALSE(bad_parse.ok());
  EXPECT_NE(bad_parse.error().find(
                "EVERY interval must be a positive whole number of epochs"),
            std::string::npos);
  const auto inverted =
      f.svc.submit("SELECT COUNT(v) FROM s WHERE v BETWEEN 50 AND 10");
  ASSERT_FALSE(inverted.ok());
  EXPECT_NE(inverted.error().find(
                "WHERE range is empty (lower bound exceeds upper bound)"),
            std::string::npos);
  const auto empty = f.svc.submit("SELECT COUNT(v) FROM s WHERE v > 1000");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.error().find("WHERE range selects no representable value"),
            std::string::npos);
  EXPECT_EQ(f.svc.live_queries(), 0u);
}

TEST(QueryService, ContinuousQueriesAnswerOnTheirSchedule) {
  Fixture f;
  const auto r = f.svc.submit("SELECT COUNT(v) FROM s EVERY 2 EPOCHS");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().continuous);
  EXPECT_FALSE(r.value().answer.has_value());
  EXPECT_EQ(f.svc.live_queries(), 1u);

  EXPECT_TRUE(f.svc.run_epoch({}).empty());   // epoch 1: not due
  const auto due = f.svc.run_epoch({});       // epoch 2: due
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, r.value().id);
  EXPECT_EQ(due[0].epoch, 2u);
  EXPECT_DOUBLE_EQ(due[0].value, 36.0);
  EXPECT_TRUE(f.svc.run_epoch({}).empty());   // epoch 3
  EXPECT_EQ(f.svc.run_epoch({}).size(), 1u);  // epoch 4
}

TEST(QueryService, CancelStopsAContinuousQuery) {
  Fixture f;
  const auto r = f.svc.submit("SELECT COUNT(v) FROM s EVERY 1 EPOCHS");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(f.svc.run_epoch({}).size(), 1u);
  EXPECT_TRUE(f.svc.cancel(r.value().id));
  EXPECT_FALSE(f.svc.cancel(r.value().id));  // already gone
  EXPECT_TRUE(f.svc.run_epoch({}).empty());
  EXPECT_EQ(f.svc.live_queries(), 0u);
}

TEST(QueryService, UpdatesFlowIntoAnswers) {
  Fixture f;
  f.svc.submit("SELECT SUM(v) FROM s EVERY 1 EPOCHS").value();
  std::vector<SensorUpdate> batch{f.drift(3, 4), f.drift(17, -4)};
  const auto answers = f.svc.run_epoch(batch);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 0, kBound));
}

TEST(QueryService, UpdateBatchesAreValidatedAgainstTheDriftModel) {
  Fixture f;
  const Value v0 = f.mirror[0];
  // Too-large jump violates max_delta.
  const std::vector<SensorUpdate> jump{{0, v0 + 5}};
  EXPECT_THROW(f.svc.run_epoch(jump), PreconditionError);
  // Two updates for one node in one epoch.
  Fixture g;
  const std::vector<SensorUpdate> dup{{0, g.mirror[0] + 1},
                                      {0, g.mirror[0] + 2}};
  EXPECT_THROW(g.svc.run_epoch(dup), PreconditionError);
}

TEST(QueryService, ARejectedBatchChangesNothing) {
  Fixture f;
  f.svc.submit("SELECT SUM(v) FROM s EVERY 1 EPOCHS").value();
  f.svc.run_epoch({});
  // The first update is valid, the second breaks the drift model: the batch
  // is refused whole, so neither the network nor the epoch moves.
  const std::vector<SensorUpdate> batch{{35, f.mirror[35] + 4},
                                        {20, f.mirror[20] + 50}};
  EXPECT_THROW(f.svc.run_epoch(batch), PreconditionError);
  EXPECT_EQ(f.net.items(35)[0], f.mirror[35]);
  EXPECT_EQ(f.svc.epoch(), 1u);

  const auto answers = f.svc.run_epoch({});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].exact);
  double network_sum = 0.0;
  for (NodeId u = 0; u < f.net.node_count(); ++u) {
    network_sum += static_cast<double>(f.net.items(u)[0]);
  }
  EXPECT_DOUBLE_EQ(answers[0].value, network_sum);
  EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 0, kBound));
  // The same updates, sent as a valid batch, still apply.
  const std::vector<SensorUpdate> valid{f.drift(35, 4)};
  const auto after = f.svc.run_epoch(valid);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_DOUBLE_EQ(after[0].value, f.exact("SUM", 0, kBound));
}

TEST(QueryService, AnExactGroupLeavesATolerantGroupServedFromTheStore) {
  // The exact subscriber's group collects fresh each epoch; the tolerant
  // subscriber of another region is still served from its group's bracket.
  Fixture f;
  f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND 100 "
               "EVERY 1 EPOCHS")
      .value();
  f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 150 AND 290 "
               "EVERY 1 EPOCHS ERROR 0.9")
      .value();
  f.svc.run_epoch({});
  const auto answers = f.svc.run_epoch({});
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_FALSE(answers[0].from_cache);
  EXPECT_TRUE(answers[1].from_cache);
  EXPECT_LE(std::abs(answers[1].value - f.exact("SUM", 150, 290)),
            answers[1].error_bound);
}

TEST(QueryService, CubeOneShotsBeyondCapacityEvictWhileAnswersStaySound) {
  // On the cube route every fresh stats serve keeps a root-only entry, so
  // distinct ranged one-shots fill the store past its capacity.
  ServiceConfig cfg;
  cfg.use_cube = true;
  Fixture f(cfg);
  f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 200 AND 280 "
               "EVERY 2 EPOCHS")
      .value();
  f.svc.submit("SELECT COUNT(v) FROM s WHERE v BETWEEN 0 AND 150 "
               "EVERY 1 EPOCHS ERROR 0.9")
      .value();
  f.svc.run_epoch({});  // only the tolerant subscriber is due: it stores
  // At the same epoch the tolerant subscriber's entry sorts first among the
  // stalest, so the last one-shot evicts it.
  for (std::size_t i = 0; i < RegionStore::kRootOnlyCapacity; ++i) {
    const std::size_t lo = 300 + i % 500;
    const std::size_t hi = lo + 1 + i / 500;
    f.svc.submit("SELECT COUNT(v) FROM s WHERE v BETWEEN " +
                 std::to_string(lo) + " AND " + std::to_string(hi))
        .value();
  }
  EXPECT_EQ(f.svc.store().size(), RegionStore::kRootOnlyCapacity);
  const auto answers = f.svc.run_epoch({});
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_TRUE(answers[0].exact);
  EXPECT_DOUBLE_EQ(answers[0].value, f.exact("SUM", 200, 280));
  EXPECT_LE(std::abs(answers[1].value - f.exact("COUNT", 0, 150)),
            answers[1].error_bound);
  EXPECT_EQ(f.svc.store().size(), RegionStore::kRootOnlyCapacity);
}

TEST(QueryService, TolerantGroupsServeFromTheStoreWithoutMessages) {
  // Two shared groups keep bracketing, so both tolerant subscribers are
  // served with zero bits on the second epoch.
  Fixture f;
  f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND 100 "
               "EVERY 1 EPOCHS ERROR 0.9")
      .value();
  f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 150 AND 290 "
               "EVERY 1 EPOCHS ERROR 0.9")
      .value();
  f.svc.run_epoch({});
  const auto msgs_before = f.net.summary().total_messages;
  const auto answers = f.svc.run_epoch({});
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_TRUE(answers[0].from_cache);
  EXPECT_TRUE(answers[1].from_cache);
  EXPECT_LE(std::abs(answers[0].value - f.exact("SUM", 0, 100)),
            answers[0].error_bound);
  EXPECT_LE(std::abs(answers[1].value - f.exact("SUM", 150, 290)),
            answers[1].error_bound);
  EXPECT_EQ(f.net.summary().total_messages, msgs_before);
}

TEST(QueryService, CacheServesTolerantContinuousQueries) {
  Fixture f;
  // Whole-domain AVG with a loose tolerance: after the first collection the
  // cache's drift bound (staleness * max_delta) stays inside epsilon for
  // several epochs, so due answers come from the cache with zero traffic.
  f.svc.submit("SELECT AVG(v) FROM s EVERY 1 EPOCHS ERROR 0.2").value();
  auto first = f.svc.run_epoch({});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_FALSE(first[0].from_cache);

  const auto msgs_before = f.net.summary().total_messages;
  for (std::uint32_t e = 0; e < 3; ++e) {
    std::vector<SensorUpdate> batch{f.drift(5, 2)};
    const auto answers = f.svc.run_epoch(batch);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_TRUE(answers[0].from_cache);
    EXPECT_GT(answers[0].error_bound, 0.0);
    // The deterministic bound must contain the true current answer.
    EXPECT_LE(std::abs(answers[0].value - f.exact("AVG", 0, kBound)),
              answers[0].error_bound);
  }
  // Cache hits cost only the dirty marks, never a collection wave.
  EXPECT_LT(f.net.summary().total_messages - msgs_before, 3u * 36u);
  EXPECT_EQ(f.svc.telemetry().cache_hits, 3u);
}

TEST(QueryService, ExactSubscriberForcesFreshCollectionForTheGroup) {
  Fixture f;
  // Same region, one tolerant and one exact subscriber: the exact one
  // forces a fresh collection each due epoch, and both then ride it.
  f.svc.submit("SELECT AVG(v) FROM s EVERY 1 EPOCHS ERROR 0.2").value();
  f.svc.submit("SELECT AVG(v) FROM s EVERY 1 EPOCHS").value();
  f.svc.run_epoch({});
  std::vector<SensorUpdate> batch{f.drift(9, 3)};
  const auto answers = f.svc.run_epoch(batch);
  ASSERT_EQ(answers.size(), 2u);
  for (const Answer& a : answers) {
    EXPECT_FALSE(a.from_cache);
    EXPECT_TRUE(a.exact);
    EXPECT_DOUBLE_EQ(a.value, f.exact("AVG", 0, kBound));
  }
}

TEST(QueryService, SharedGroupsCollectOncePerEpoch) {
  Fixture f;
  // Eight exact subscribers over the same region: one wave serves all.
  for (int i = 0; i < 8; ++i) {
    f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 "
                 "EVERY 1 EPOCHS")
        .value();
  }
  f.svc.run_epoch({});
  EXPECT_EQ(f.svc.plan_stats().stats_waves, 1u);
  const std::vector<SensorUpdate> batch{f.drift(2, 1)};
  const auto answers = f.svc.run_epoch(batch);
  EXPECT_EQ(answers.size(), 8u);
  EXPECT_EQ(f.svc.plan_stats().stats_waves, 2u);
  for (const Answer& a : answers) {
    EXPECT_DOUBLE_EQ(a.value, f.exact("SUM", 20, 200));
  }
}

TEST(QueryService, EmptySelectionsAreFlagged) {
  Fixture f;
  const auto r = f.svc.submit("SELECT MIN(v) FROM s WHERE v BETWEEN 990 AND 1000");
  ASSERT_TRUE(r.ok());
  const Answer& a = *r.value().answer;
  EXPECT_TRUE(a.empty_selection);
  EXPECT_DOUBLE_EQ(a.value, 0.0);
}

/// A 4x4 grid with every reading at 500, served in one of the three modes.
struct FlatGrid {
  sim::Network net;
  net::SpanningTree tree;
  QueryService svc;

  explicit FlatGrid(ServiceConfig cfg)
      : net(net::make_grid(4, 4), 5),
        tree(net::bfs_tree(net.graph(), 0)),
        svc(query::Deployment{net, tree, kBound}, cfg) {
    net.set_one_item_per_node(ValueSet(16, 500));
  }
};

std::vector<ServiceConfig> all_modes() {
  ServiceConfig naive;
  naive.share_aggregation = false;
  ServiceConfig cube;
  cube.use_cube = true;
  return {naive, ServiceConfig{}, cube};
}

TEST(QueryService, SelectionsDriftingEmptyAreFlaggedInEveryMode) {
  for (const ServiceConfig& cfg : all_modes()) {
    FlatGrid g(cfg);
    const QueryId min = g.svc.submit("SELECT MIN(v) FROM s WHERE v BETWEEN 0 "
                                     "AND 501 EVERY 1 EPOCHS")
                            .value()
                            .id;
    const QueryId avg = g.svc.submit("SELECT AVG(v) FROM s WHERE v BETWEEN 0 "
                                     "AND 501 EVERY 1 EPOCHS")
                            .value()
                            .id;
    const QueryId count =
        g.svc.submit("SELECT COUNT(v) FROM s EVERY 1 EPOCHS").value().id;
    std::vector<SensorUpdate> batch;
    for (NodeId u = 0; u < 16; ++u) batch.push_back(SensorUpdate{u, 504});
    const std::vector<Answer> answers = g.svc.run_epoch(batch);
    ASSERT_EQ(answers.size(), 3u) << "naive/shared/cube: " << cfg.use_cube;
    for (const Answer& a : answers) {
      EXPECT_EQ(a.epoch, 1u);
      if (a.id == count) {
        EXPECT_FALSE(a.empty_selection);
        EXPECT_DOUBLE_EQ(a.value, 16.0);
      } else {
        EXPECT_TRUE(a.id == min || a.id == avg);
        EXPECT_TRUE(a.empty_selection);
        EXPECT_DOUBLE_EQ(a.value, 0.0);
      }
    }
  }
}

TEST(QueryService, EmptyMediansAreFlaggedInEveryMode) {
  for (const ServiceConfig& cfg : all_modes()) {
    FlatGrid g(cfg);
    for (const char* text :
         {"SELECT MEDIAN(v) FROM s WHERE v BETWEEN 600 AND 700",
          "SELECT MEDIAN(v) FROM s WHERE v BETWEEN 600 AND 700 ERROR 0.1",
          "SELECT QUANTILE(v, 0.9) FROM s WHERE v BETWEEN 600 AND 700"}) {
      const auto r = g.svc.submit(text);
      ASSERT_TRUE(r.ok()) << text;
      ASSERT_TRUE(r.value().answer.has_value()) << text;
      EXPECT_TRUE(r.value().answer->empty_selection) << text;
      EXPECT_DOUBLE_EQ(r.value().answer->value, 0.0) << text;
    }
    // A continuous median that selects nothing leaves the epoch's other
    // due queries answered.
    g.svc.submit("SELECT MEDIAN(v) FROM s WHERE v BETWEEN 600 AND 700 "
                 "EVERY 1 EPOCHS")
        .value();
    g.svc.submit("SELECT MAX(v) FROM s EVERY 1 EPOCHS").value();
    const std::vector<Answer> answers = g.svc.run_epoch({});
    ASSERT_EQ(answers.size(), 2u);
    EXPECT_TRUE(answers[0].empty_selection);
    EXPECT_FALSE(answers[1].empty_selection);
    EXPECT_DOUBLE_EQ(answers[1].value, 500.0);
  }
}

TEST(QueryService, DistinctAndMedianRouteAroundTheStatsPath) {
  Fixture f;
  const auto distinct = f.svc.submit("SELECT COUNT_DISTINCT(v) FROM s");
  ASSERT_TRUE(distinct.ok());
  std::vector<Value> seen;
  for (const Value v : f.mirror) {
    if (std::find(seen.begin(), seen.end(), v) == seen.end())
      seen.push_back(v);
  }
  EXPECT_DOUBLE_EQ(distinct.value().answer->value,
                   static_cast<double>(seen.size()));

  const auto median = f.svc.submit("SELECT MEDIAN(v) FROM s");
  ASSERT_TRUE(median.ok());
  std::vector<Value> sorted = f.mirror;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(median.value().answer->value,
                   static_cast<double>(sorted[17]));
}

TEST(QueryService, SharedModeShipsFewerBitsThanNaive) {
  // The tentpole claim in miniature: overlapping continuous queries cost
  // far fewer bits under shared aggregation than under per-query execution.
  ServiceConfig naive_cfg;
  naive_cfg.share_aggregation = false;
  naive_cfg.use_cache = false;
  Fixture shared{};
  Fixture naive{naive_cfg};
  const std::vector<std::string> workload{
      "SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
      "SELECT MIN(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
  };
  for (const auto& q : workload) {
    ASSERT_TRUE(shared.svc.submit(q).ok());
    ASSERT_TRUE(naive.svc.submit(q).ok());
  }
  for (int e = 0; e < 6; ++e) {
    const std::vector<SensorUpdate> su{shared.drift(7, 2)};
    const std::vector<SensorUpdate> nu{naive.drift(7, 2)};
    const auto sa = shared.svc.run_epoch(su);
    const auto na = naive.svc.run_epoch(nu);
    ASSERT_EQ(sa.size(), na.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_DOUBLE_EQ(sa[i].value, na[i].value);  // same exact answers
    }
  }
  const auto shared_bits = shared.net.summary(true).total_bits;
  const auto naive_bits = naive.net.summary(true).total_bits;
  EXPECT_LT(shared_bits * 2, naive_bits);
}

TEST(QueryService, TelemetrySnapshotAttributesCostsToQueriesAndGroups) {
  Fixture f;
  const auto tolerant =
      f.svc.submit("SELECT AVG(v) FROM s EVERY 1 EPOCHS ERROR 0.2").value();
  const auto exact =
      f.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 20 AND 200 "
                   "EVERY 1 EPOCHS")
          .value();
  f.svc.run_epoch({});
  for (int e = 0; e < 3; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(5, 2)};
    f.svc.run_epoch(batch);
  }

  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();

  // The tolerant whole-domain query pays its first collection, then rides
  // the cache; the exact ranged query pays a fresh wave every epoch.
  const QueryCost& tc = snap.queries.at(tolerant.id);
  EXPECT_EQ(tc.answers, 4u);
  EXPECT_EQ(tc.fresh, 1u);
  EXPECT_EQ(tc.cache_hits, 3u);
  EXPECT_GT(tc.bits_on_air, 0u);
  EXPECT_GT(tc.bound_slack, 0.0);
  const QueryCost& ec = snap.queries.at(exact.id);
  EXPECT_EQ(ec.answers, 4u);
  EXPECT_EQ(ec.fresh, 4u);
  EXPECT_EQ(ec.cache_hits, 0u);
  EXPECT_DOUBLE_EQ(ec.bound_slack, 0.0);
  EXPECT_GT(ec.bits_on_air, tc.bits_on_air);

  // Cache hit accounting is consistent end to end: engine totals, the
  // cache's own counters, and the per-query ledgers all agree.
  EXPECT_EQ(snap.totals.cache_hits, 3u);
  EXPECT_EQ(snap.cache.hits, 3u);
  EXPECT_EQ(snap.cache.hits, tc.cache_hits + ec.cache_hits);
  EXPECT_GT(snap.cache.misses + snap.cache.absent, 0u);

  // Two distinct regions -> two groups, each with one live subscriber, and
  // every group's collections were paid by its subscribers' fresh answers.
  ASSERT_EQ(snap.groups.size(), 2u);
  std::uint64_t group_collections = 0;
  for (const auto& [gid, gc] : snap.groups) {
    EXPECT_EQ(gc.subscribers, 1u);
    group_collections += gc.collections;
  }
  EXPECT_EQ(group_collections, snap.plan.stats_waves);

  // Marginal-cost conservation: per-query bits plus the service-level mark
  // wave account for every bit the network charged.
  const std::uint64_t total_bits = f.net.summary(true).total_bits;
  std::uint64_t attributed = snap.mark_bits_on_air;
  for (const auto& [id, qc] : snap.queries) attributed += qc.bits_on_air;
  // Group-install broadcasts are charged to groups, not queries.
  for (const auto& [gid, gc] : snap.groups) {
    EXPECT_GT(gc.bits_on_air, 0u);
  }
  std::uint64_t fresh_bits = 0;
  for (const auto& [id, qc] : snap.queries) fresh_bits += qc.bits_on_air;
  EXPECT_LE(attributed, total_bits);
  EXPECT_GT(fresh_bits, 0u);
}

TEST(QueryService, AttributedBitsPlusMarksEqualNetworkTotal) {
  Fixture f;
  // Whole-domain groups only: no install broadcasts, so query bits plus
  // mark-wave bits must reproduce the network total exactly.
  f.svc.submit("SELECT SUM(v) FROM s EVERY 1 EPOCHS").value();
  f.svc.submit("SELECT COUNT(v) FROM s EVERY 2 EPOCHS").value();
  for (int e = 0; e < 4; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(11, 2)};
    f.svc.run_epoch(batch);
  }
  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  std::uint64_t attributed = snap.mark_bits_on_air;
  std::uint64_t attributed_msgs = snap.mark_messages;
  for (const auto& [id, qc] : snap.queries) {
    attributed += qc.bits_on_air;
    attributed_msgs += qc.messages;
  }
  const auto total = f.net.summary(true);
  EXPECT_EQ(attributed, total.total_bits);
  EXPECT_EQ(attributed_msgs, total.total_messages);
}

TEST(QueryService, CubeModeAnswersMatchTheNaiveOracle) {
  ServiceConfig cube_cfg;
  cube_cfg.use_cube = true;
  cube_cfg.use_cache = false;
  ServiceConfig naive_cfg;
  naive_cfg.share_aggregation = false;
  naive_cfg.use_cache = false;
  Fixture c{cube_cfg};
  Fixture n{naive_cfg};
  const std::vector<std::string> workload{
      "SELECT SUM(v) FROM s EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s EVERY 1 EPOCHS",
      "SELECT MIN(v) FROM s EVERY 1 EPOCHS",
      "SELECT MAX(v) FROM s WHERE v BETWEEN 20 AND 200 EVERY 1 EPOCHS",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 50 AND 250 EVERY 2 EPOCHS",
  };
  for (const auto& q : workload) {
    ASSERT_TRUE(c.svc.submit(q).ok());
    ASSERT_TRUE(n.svc.submit(q).ok());
  }
  for (int e = 0; e < 6; ++e) {
    const NodeId u = static_cast<NodeId>((e * 5) % 36);
    const Value delta = (e % 2 == 0) ? 2 : -2;
    const std::vector<SensorUpdate> cu{c.drift(u, delta)};
    const std::vector<SensorUpdate> nu{n.drift(u, delta)};
    const auto ca = c.svc.run_epoch(cu);
    const auto na = n.svc.run_epoch(nu);
    ASSERT_EQ(ca.size(), na.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      // Exact queries: the cube-composed answer is byte-identical to the
      // per-query tree collection, fresh or bracket-served.
      EXPECT_DOUBLE_EQ(ca[i].value, na[i].value) << "epoch " << e;
      EXPECT_EQ(ca[i].exact, na[i].exact);
    }
  }
  // One-shots route through the cube too.
  const auto co = c.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 50 AND 250");
  const auto no = n.svc.submit("SELECT SUM(v) FROM s WHERE v BETWEEN 50 AND 250");
  EXPECT_DOUBLE_EQ(co.value().answer->value, no.value().answer->value);
  EXPECT_GT(c.svc.telemetry().cube_fresh_answers, 0u);
}

TEST(QueryService, CubeModeShipsFewerBitsOnRepeatedWholeDomainQueries) {
  // The PR 10 claim in miniature: whole-domain continuous queries ride one
  // incrementally-fresh root cell instead of paying a collection each.
  ServiceConfig cube_cfg;
  cube_cfg.use_cube = true;
  cube_cfg.use_cache = false;
  ServiceConfig naive_cfg;
  naive_cfg.share_aggregation = false;
  naive_cfg.use_cache = false;
  Fixture c{cube_cfg};
  Fixture n{naive_cfg};
  const std::vector<std::string> workload{
      "SELECT SUM(v) FROM s EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s EVERY 1 EPOCHS",
      "SELECT MIN(v) FROM s EVERY 1 EPOCHS",
      "SELECT AVG(v) FROM s EVERY 1 EPOCHS",
  };
  for (const auto& q : workload) {
    ASSERT_TRUE(c.svc.submit(q).ok());
    ASSERT_TRUE(n.svc.submit(q).ok());
  }
  for (int e = 0; e < 6; ++e) {
    const std::vector<SensorUpdate> cu{c.drift(13, 2)};
    const std::vector<SensorUpdate> nu{n.drift(13, 2)};
    const auto ca = c.svc.run_epoch(cu);
    const auto na = n.svc.run_epoch(nu);
    ASSERT_EQ(ca.size(), na.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_DOUBLE_EQ(ca[i].value, na[i].value);
    }
  }
  EXPECT_LT(c.net.summary(true).total_bits * 2,
            n.net.summary(true).total_bits);
  const TelemetrySnapshot snap = c.svc.telemetry_snapshot();
  EXPECT_GT(snap.cube.refresh_waves, 0u);
  EXPECT_GT(snap.cube.cell_edges_skipped, 0u);
}

TEST(QueryService, CubeStaleBracketsServeTolerantQueriesWithZeroBits) {
  ServiceConfig cfg;
  cfg.use_cube = true;
  cfg.use_cache = false;  // isolate tier 2: no result-cache hits
  Fixture f{cfg};
  f.svc.submit("SELECT AVG(v) FROM s EVERY 1 EPOCHS ERROR 0.2").value();
  const auto first = f.svc.run_epoch({});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].exact);

  const auto msgs_before = f.net.summary().total_messages;
  for (int e = 0; e < 3; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(5, 2)};
    const auto answers = f.svc.run_epoch(batch);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_FALSE(answers[0].from_cache);
    EXPECT_GT(answers[0].error_bound, 0.0);
    EXPECT_LE(std::abs(answers[0].value - f.exact("AVG", 0, kBound)),
              answers[0].error_bound);
  }
  EXPECT_EQ(f.svc.telemetry().cube_stale_answers, 3u);
  // Stale serves never touch the air: only the dirty marks cost messages.
  EXPECT_LT(f.net.summary().total_messages - msgs_before, 3u * 36u);
  EXPECT_GT(f.svc.telemetry_snapshot().cube.stale_serves, 0u);
}

TEST(QueryService, CubeCountsOnlyTheStaleServesItMakes) {
  // After drift the root cell still has a bracket, but never a zero-width
  // one: the exact subscriber is served fresh every epoch, and the cube must
  // not count a stale serve for a bracket the service turned down.
  ServiceConfig cfg;
  cfg.use_cube = true;
  cfg.use_cache = false;
  Fixture f{cfg};
  f.svc.submit("SELECT SUM(v) FROM s EVERY 1 EPOCHS").value();
  f.svc.run_epoch({});
  for (int e = 0; e < 3; ++e) {
    const std::vector<SensorUpdate> batch{f.drift(5, 2)};
    const auto answers = f.svc.run_epoch(batch);
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_TRUE(answers[0].exact);
  }
  const TelemetrySnapshot snap = f.svc.telemetry_snapshot();
  EXPECT_EQ(snap.totals.cube_fresh_answers, 4u);
  EXPECT_EQ(snap.cube.stale_serves, snap.totals.cube_stale_answers);
}

TEST(QueryService, CubeServesDistinctFromMaintainedSketches) {
  ServiceConfig cube_cfg;
  cube_cfg.use_cube = true;
  cube_cfg.cube_distinct_registers = 64;
  cube_cfg.use_cache = false;
  ServiceConfig naive_cfg;
  naive_cfg.share_aggregation = false;
  naive_cfg.use_cache = false;
  Fixture c{cube_cfg};
  Fixture n{naive_cfg};
  // ERROR 0.15 sizes the plan to the cube's 64 registers, so the query is
  // cube-eligible; the maintained sketches replicate the one-shot
  // protocol's geometry, making the estimates byte-identical.
  const char* q = "SELECT COUNT_DISTINCT(v) FROM s ERROR 0.15";
  const auto ca = c.svc.submit(q);
  const auto na = n.svc.submit(q);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(na.ok());
  EXPECT_DOUBLE_EQ(ca.value().answer->value, na.value().answer->value);
  EXPECT_EQ(c.svc.telemetry().cube_fresh_answers, 1u);
}

/// The one-shot oracle's view of a ranged COUNT_DISTINCT: only in-range
/// readings.
class RegionView final : public proto::LocalItemView {
 public:
  RegionView(Value lo, Value hi) : lo_(lo), hi_(hi) {}
  ValueSet items(sim::Network& net, NodeId node) const override {
    ValueSet out;
    for (const Value v : net.items(node)) {
      if (v >= lo_ && v <= hi_) out.push_back(v);
    }
    return out;
  }

 private:
  Value lo_;
  Value hi_;
};

TEST(QueryService, DistinctGroupsRefreshIncrementallyThroughDrift) {
  // Shared COUNT_DISTINCT groups over a patchily drifting 16x16 grid: each
  // HLL answer is bit for bit the one-shot hashed wave's on a twin network,
  // each exact answer the brute-force count, and after the first wave every
  // epoch's refresh descends only into the drifted subtrees.
  constexpr NodeId kNodes = 256;
  sim::Network net(net::make_grid(16, 16), 3);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  sim::Network twin(net::make_grid(16, 16), 3);
  const net::SpanningTree twin_tree = net::bfs_tree(twin.graph(), 0);
  std::vector<Value> mirror(kNodes);
  for (NodeId u = 0; u < kNodes; ++u) {
    mirror[u] = static_cast<Value>((u * 37) % 300);
  }
  net.set_one_item_per_node(mirror);
  QueryService svc(query::Deployment{net, tree, kBound}, ServiceConfig{});

  struct Group {
    std::string text;
    Value lo, hi;
    bool approx;
    QueryId id = 0;
    std::uint64_t spent = 0;       // the query's bits so far
    std::uint64_t first_wave = 0;  // bits of its group's first wave
  };
  std::vector<Group> groups = {
      {"SELECT COUNT_DISTINCT(v) FROM s EVERY 1 EPOCHS ERROR 0.1", 0, kBound,
       true},
      {"SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 50 AND 200 "
       "EVERY 1 EPOCHS ERROR 0.1",
       50, 200, true},
      {"SELECT COUNT_DISTINCT(v) FROM s EVERY 1 EPOCHS", 0, kBound, false},
      {"SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 50 AND 200 "
       "EVERY 1 EPOCHS",
       50, 200, false},
  };
  for (Group& g : groups) g.id = svc.submit(g.text).value().id;

  for (std::uint32_t e = 1; e <= 12; ++e) {
    std::vector<SensorUpdate> batch;
    for (NodeId u = e % 23; u < kNodes; u += 23) {
      mirror[u] = std::clamp<Value>(mirror[u] + ((u + e) % 2 ? 4 : -3), 0,
                                    kBound);
      batch.push_back(SensorUpdate{u, mirror[u]});
    }
    const std::vector<Answer> answers = svc.run_epoch(batch);
    ASSERT_EQ(answers.size(), groups.size());
    twin.set_one_item_per_node(mirror);
    const TelemetrySnapshot snap = svc.telemetry_snapshot();
    for (std::size_t i = 0; i < groups.size(); ++i) {
      Group& g = groups[i];
      const Answer& a = answers[i];
      ASSERT_EQ(a.id, g.id);
      const RegionView view(g.lo, g.hi);
      if (g.approx) {
        EXPECT_FALSE(a.exact);
        EXPECT_EQ(a.value, core::approx_count_distinct(
                               twin, twin_tree,
                               query::registers_for_error(0.1),
                               proto::EstimatorKind::kHyperLogLog, view)
                               .estimate)
            << g.text << " at epoch " << e;
      } else {
        EXPECT_TRUE(a.exact);
        std::vector<Value> seen;
        for (const Value v : mirror) {
          if (v >= g.lo && v <= g.hi &&
              std::find(seen.begin(), seen.end(), v) == seen.end()) {
            seen.push_back(v);
          }
        }
        EXPECT_EQ(a.value, static_cast<double>(seen.size()))
            << g.text << " at epoch " << e;
      }
      // One subscriber per group: the query's bits are its group's waves.
      const std::uint64_t spent = snap.queries.at(g.id).bits_on_air;
      const std::uint64_t wave = spent - g.spent;
      g.spent = spent;
      if (e == 1) {
        g.first_wave = wave;
      } else {
        EXPECT_LT(wave, g.first_wave) << g.text << " at epoch " << e;
      }
    }
  }
  EXPECT_EQ(svc.plan_stats().distinct_waves, 12u * groups.size());
}

TEST(QueryService, CubeAnswersARangedCountOnADeepLineTree) {
  // A 200,000-node line is a BFS tree as deep as it is wide: the cube's
  // cost walks must not recurse once per tree level.
  constexpr NodeId kNodes = 200000;
  sim::Network net(net::make_line(kNodes), /*master_seed=*/5);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  std::vector<Value> values(kNodes);
  for (NodeId u = 0; u < kNodes; ++u) {
    values[u] = static_cast<Value>((u * 53) % (kBound + 1));
  }
  net.set_one_item_per_node(values);
  ServiceConfig cfg;
  cfg.use_cube = true;
  QueryService svc(query::Deployment{net, tree, kBound}, cfg);

  const auto adm =
      svc.submit("SELECT COUNT(v) FROM s WHERE v BETWEEN 123 AND 456");
  ASSERT_TRUE(adm.ok());
  ASSERT_TRUE(adm.value().answer.has_value());
  const auto expected = std::count_if(
      values.begin(), values.end(),
      [](Value v) { return v >= 123 && v <= 456; });
  EXPECT_EQ(adm.value().answer->value, static_cast<double>(expected));
  EXPECT_EQ(svc.telemetry().cube_fresh_answers, 1u);
}

}  // namespace
}  // namespace sensornet::service
