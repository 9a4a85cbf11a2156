// Thread-count invariance of the query service.
//
// submit_batch's parse/plan stage runs on the work-stealing farm; everything
// that talks to the network is serialized in submission order. The contract:
// the full answer stream — ids, epochs, values, bounds, flags — and the
// network's bit meter are byte-identical at any thread count, including
// under register/cancel churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/net/topology.hpp"
#include "src/service/engine.hpp"

namespace sensornet::service {
namespace {

constexpr Value kBound = 1000;

struct ScenarioResult {
  std::vector<Answer> answers;
  std::vector<std::string> errors;
  std::uint64_t total_bits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cube_fresh_answers = 0;
};

/// A fixed mixed scenario: batch admission (some malformed), epochs of
/// drifting updates, and mid-stream register/cancel churn.
ScenarioResult run_scenario(unsigned threads) {
  sim::Network net(net::make_grid(6, 6), /*master_seed=*/21);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  std::vector<Value> values(36);
  for (NodeId u = 0; u < 36; ++u) {
    values[u] = static_cast<Value>((u * 41) % 500);
  }
  net.set_one_item_per_node(values);

  ServiceConfig cfg;
  cfg.threads = threads;
  QueryService svc(query::Deployment{net, tree, kBound}, cfg);

  ScenarioResult run;
  const auto note = [&](const std::vector<Result<Admission>>& results) {
    for (const auto& r : results) {
      if (!r.ok()) {
        run.errors.push_back(r.error());
      } else if (r.value().answer) {
        run.answers.push_back(*r.value().answer);
      }
    }
  };

  note(svc.submit_batch({
      "SELECT SUM(v) FROM s WHERE v BETWEEN 50 AND 400 EVERY 1 EPOCHS "
      "ERROR 0.1",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 50 AND 400 EVERY 2 EPOCHS "
      "ERROR 0.1",
      "SELECT COUNT(v) FROM s EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s WHERE v BETWEEN 400 AND 200 EVERY 1 EPOCHS",
      "SELECT MAX(v) FROM s WHERE v >= 100 EVERY 3 EPOCHS",
      "SELECT MIN(v) FROM s",  // one-shot rides the batch
  }));

  QueryId cancelled = 0;
  for (std::uint32_t e = 1; e <= 8; ++e) {
    std::vector<SensorUpdate> batch;
    for (NodeId u = 0; u < 36; u += 5) {
      const Value delta = (e + u) % 2 == 0 ? 3 : -3;
      const Value v = std::clamp<Value>(values[u] + delta, 0, kBound);
      values[u] = v;
      batch.push_back(SensorUpdate{u, v});
    }
    for (const Answer& a : svc.run_epoch(batch)) run.answers.push_back(a);
    if (e == 3) {
      // Churn: a new subscriber joins the shared region, another leaves.
      const auto joined = svc.submit(
          "SELECT COUNT(v) FROM s WHERE v BETWEEN 50 AND 400 EVERY 1 EPOCHS");
      cancelled = joined.value().id;
    }
    if (e == 5) svc.cancel(cancelled);
  }

  run.total_bits = net.summary(true).total_bits;
  run.cache_hits = svc.telemetry().cache_hits;
  return run;
}

/// The cube path on the farm: submit_batch plans cube-eligible queries on
/// worker threads, and every plan probes the one cube's cost model (and its
/// memo) concurrently. Aligned, unaligned and approximate-distinct ranges are
/// batched each epoch while readings drift, so the memo is dropped and
/// refilled between batches.
ScenarioResult run_cube_scenario(unsigned threads) {
  sim::Network net(net::make_grid(8, 8), /*master_seed=*/33);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  std::vector<Value> values(64);
  for (NodeId u = 0; u < 64; ++u) {
    values[u] = static_cast<Value>((u * 67) % 900);
  }
  net.set_one_item_per_node(values);

  ServiceConfig cfg;
  cfg.threads = threads;
  cfg.use_cube = true;
  cfg.cube_levels = 4;  // level-2 cells: [0,249] [250,499] [500,749] ...
  cfg.cube_distinct_registers = 64;  // what ERROR 0.15 plans for
  QueryService svc(query::Deployment{net, tree, kBound}, cfg);

  ScenarioResult run;
  const auto note = [&](const std::vector<Result<Admission>>& results) {
    for (const auto& r : results) {
      if (!r.ok()) {
        run.errors.push_back(r.error());
      } else if (r.value().answer) {
        run.answers.push_back(*r.value().answer);
      }
    }
  };

  note(svc.submit_batch({
      "SELECT SUM(v) FROM s WHERE v BETWEEN 0 AND 249 EVERY 1 EPOCHS",
      "SELECT COUNT(v) FROM s WHERE v BETWEEN 250 AND 749 EVERY 1 EPOCHS",
      "SELECT MAX(v) FROM s WHERE v BETWEEN 37 AND 420 EVERY 1 EPOCHS",
      "SELECT AVG(v) FROM s WHERE v BETWEEN 130 AND 610 EVERY 2 EPOCHS",
      "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 100 AND 480 "
      "EVERY 1 EPOCHS ERROR 0.15",
      "SELECT COUNT_DISTINCT(v) FROM s ERROR 0.15",
  }));

  for (std::uint32_t e = 1; e <= 8; ++e) {
    std::vector<SensorUpdate> batch;
    for (NodeId u = e % 3; u < 64; u += 3) {
      const Value delta = (e + u) % 2 == 0 ? 4 : -4;
      const Value v = std::clamp<Value>(values[u] + delta, 0, kBound);
      values[u] = v;
      batch.push_back(SensorUpdate{u, v});
    }
    for (const Answer& a : svc.run_epoch(batch)) run.answers.push_back(a);
    const std::string lo = std::to_string(11 * e);
    const std::string hi = std::to_string(300 + 47 * e);
    note(svc.submit_batch({
        "SELECT COUNT(v) FROM s WHERE v BETWEEN " + lo + " AND " + hi,
        "SELECT SUM(v) FROM s WHERE v BETWEEN 500 AND 1000",
        "SELECT MIN(v) FROM s WHERE v BETWEEN 250 AND 499",
        "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN " + lo + " AND " +
            hi + " ERROR 0.15",
        "SELECT MAX(v) FROM s WHERE v BETWEEN " + hi + " AND 999",
    }));
  }

  run.total_bits = net.summary(true).total_bits;
  run.cache_hits = svc.telemetry().cache_hits;
  run.cube_fresh_answers = svc.telemetry().cube_fresh_answers;
  // The service's answer totals are the counts the store and the cube keep.
  const TelemetrySnapshot snap = svc.telemetry_snapshot();
  EXPECT_EQ(svc.telemetry().cache_hits, snap.cache.hits);
  EXPECT_EQ(svc.telemetry().cube_fresh_answers, snap.cube.fresh_serves);
  EXPECT_EQ(svc.telemetry().cube_stale_answers, snap.cube.stale_serves);
  EXPECT_EQ(snap.mark_messages, snap.plan.mark_messages);
  return run;
}

bool answers_identical(const Answer& a, const Answer& b) {
  return a.id == b.id && a.epoch == b.epoch && a.value == b.value &&
         a.error_bound == b.error_bound && a.exact == b.exact &&
         a.from_cache == b.from_cache &&
         a.empty_selection == b.empty_selection;
}

TEST(ServiceDeterminism, AnswerStreamInvariantAcrossThreadCounts) {
  const ScenarioResult base = run_scenario(1);
  EXPECT_FALSE(base.answers.empty());
  EXPECT_EQ(base.errors.size(), 1u);  // the inverted BETWEEN range
  for (const unsigned threads : {2u, 8u}) {
    const ScenarioResult other = run_scenario(threads);
    ASSERT_EQ(other.answers.size(), base.answers.size()) << threads;
    for (std::size_t i = 0; i < base.answers.size(); ++i) {
      EXPECT_TRUE(answers_identical(base.answers[i], other.answers[i]))
          << "answer " << i << " at threads=" << threads;
    }
    EXPECT_EQ(other.errors, base.errors) << threads;
    EXPECT_EQ(other.total_bits, base.total_bits) << threads;
    EXPECT_EQ(other.cache_hits, base.cache_hits) << threads;
  }
}

TEST(ServiceDeterminism, CubeAnswerStreamInvariantAcrossThreadCounts) {
  const ScenarioResult base = run_cube_scenario(1);
  EXPECT_TRUE(base.errors.empty());
  // Every continuous and one-shot query above is cube-eligible.
  EXPECT_EQ(base.cube_fresh_answers + base.cache_hits, base.answers.size());
  EXPECT_GT(base.cube_fresh_answers, 0u);
  for (const unsigned threads : {2u, 8u}) {
    const ScenarioResult other = run_cube_scenario(threads);
    ASSERT_EQ(other.answers.size(), base.answers.size()) << threads;
    for (std::size_t i = 0; i < base.answers.size(); ++i) {
      EXPECT_TRUE(answers_identical(base.answers[i], other.answers[i]))
          << "answer " << i << " at threads=" << threads;
    }
    EXPECT_EQ(other.errors, base.errors) << threads;
    EXPECT_EQ(other.total_bits, base.total_bits) << threads;
    EXPECT_EQ(other.cube_fresh_answers, base.cube_fresh_answers) << threads;
  }
}

}  // namespace
}  // namespace sensornet::service
