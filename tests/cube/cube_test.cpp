#include "src/cube/cube.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/count_distinct.hpp"
#include "src/net/topology.hpp"
#include "src/proto/item_view.hpp"
#include "src/query/parser.hpp"
#include "src/query/planner.hpp"

namespace sensornet::cube {
namespace {

constexpr Value kBound = 1000;
constexpr Value kDelta = 4;
constexpr std::uint32_t kHorizon = 8;
const DriftModel kDrift{kBound, kDelta, kHorizon};
/// An ERROR no bracket fails: stale_bracket then returns every bracket.
constexpr double kAnyError = std::numeric_limits<double>::infinity();

/// The oracle: core stats over `region` computed directly from the
/// installed items, no network involved.
RangeStats direct_core(const sim::Network& net,
                       const query::RegionSignature& region) {
  RangeStats rs;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    for (const Value v : net.items(u)) {
      if (region.whole_domain || (v >= region.lo && v <= region.hi)) {
        rs.observe(v);
      }
    }
  }
  return rs;
}

struct Fixture {
  sim::Network net;
  net::SpanningTree tree;
  DirtyTracker dirty;
  Cube cube;

  explicit Fixture(CubeConfig cfg = {}, std::uint64_t seed = 7)
      : net(net::make_grid(8, 8), seed),
        tree(net::bfs_tree(net.graph(), 0)),
        dirty(net, tree),
        cube(net, tree, kDrift, dirty, cfg) {
    ValueSet vs(64);
    for (NodeId u = 0; u < 64; ++u) {
      vs[u] = static_cast<Value>((u * 37) % 200);
    }
    net.set_one_item_per_node(vs);
  }

  query::CostedPlan plan_for(const std::string& text) {
    const query::Planner planner(kBound, &cube);
    return planner.plan(query::parse_query(text)).value();
  }
};

TEST(Cube, GeometryNestsAndConstructionShipsZeroBits) {
  Fixture f;
  // Construction is pure bookkeeping: the install broadcast is lazy.
  EXPECT_EQ(f.net.summary().total_messages, 0u);
  EXPECT_EQ(f.cube.cell_count(), 15u);  // 1 + 2 + 4 + 8
  // Level 0 is the whole domain; every cell is the union of its children.
  EXPECT_TRUE(f.cube.cell_region({0, 0}).whole_domain);
  for (unsigned level = 0; level + 1 < f.cube.levels(); ++level) {
    for (unsigned i = 0; i < (1u << level); ++i) {
      const auto parent = f.cube.cell_region({level, i});
      const auto left = f.cube.cell_region({level + 1, 2 * i});
      const auto right = f.cube.cell_region({level + 1, 2 * i + 1});
      EXPECT_EQ(parent.lo, left.lo);
      EXPECT_EQ(left.hi + 1, right.lo);
      EXPECT_EQ(parent.hi, right.hi);
    }
  }
}

TEST(Cube, ServeComposesTheExactAnswer) {
  Fixture f;
  for (const char* text :
       {"SELECT COUNT(v) FROM s", "SELECT MIN(v) FROM s",
        "SELECT SUM(v) FROM s WHERE v BETWEEN 30 AND 120",
        "SELECT MAX(v) FROM s WHERE v BETWEEN 0 AND 499",
        "SELECT COUNT(v) FROM s WHERE v BETWEEN 77 AND 901"}) {
    const query::CostedPlan plan = f.plan_for(text);
    const BundlePartial r = f.cube.serve(plan, 0);
    EXPECT_EQ(r.bundle.core, direct_core(f.net, plan.region)) << text;
  }
}

TEST(Cube, FirstServePaysTheGeometryInstallOnce) {
  Fixture f;
  const query::CostedPlan plan = f.plan_for("SELECT COUNT(v) FROM s");
  f.cube.serve(plan, 0);
  EXPECT_EQ(f.cube.stats().geometry_installs, 1u);
  const auto msgs = f.net.summary().total_messages;
  EXPECT_GT(msgs, 0u);
  f.cube.serve(plan, 0);
  EXPECT_EQ(f.cube.stats().geometry_installs, 1u);
  // Same epoch: the cell is already fresh, so the re-serve is free.
  EXPECT_EQ(f.net.summary().total_messages, msgs);
}

TEST(Cube, QuiescentRefreshIsFree) {
  Fixture f;
  const query::CostedPlan plan = f.plan_for("SELECT SUM(v) FROM s");
  ASSERT_TRUE(plan.cube_served());
  f.cube.serve(plan, 0);
  const auto msgs = f.net.summary().total_messages;
  const auto descended = f.cube.stats().cell_edges_descended;
  // Nothing changed: epoch 1's refresh is answered entirely from the
  // parent-side partials.
  const BundlePartial r = f.cube.serve(plan, 1);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
  EXPECT_EQ(f.cube.stats().cell_edges_descended, descended);
  EXPECT_EQ(r.bundle.core, direct_core(f.net, plan.region));
}

TEST(Cube, IncrementalRefreshDescendsOnlyTheDirtyPath) {
  Fixture f;
  const query::CostedPlan plan = f.plan_for("SELECT SUM(v) FROM s");
  ASSERT_EQ(plan.steps.size(), 1u);  // whole domain: the root cell alone
  ASSERT_EQ(plan.steps[0].kind, query::StepKind::kCubeCell);
  f.cube.serve(plan, 0);
  EXPECT_EQ(f.cube.stats().cell_edges_descended, 63u);

  const NodeId changed = 63;
  f.net.update_item(changed, 0, f.net.items(changed)[0] + kDelta);
  const std::vector<NodeId> touched{changed};
  f.dirty.note_updates(touched, 1);
  const BundlePartial r = f.cube.serve(plan, 1);
  // Exactly the changed node's root path is revisited.
  EXPECT_EQ(f.cube.stats().cell_edges_descended, 63u + f.tree.depth[changed]);
  EXPECT_GT(f.cube.stats().cell_edges_skipped, 0u);
  EXPECT_EQ(r.bundle.core, direct_core(f.net, plan.region));
}

TEST(Cube, ResiduePrunesSubtreesProvablyEmptyForTheRange) {
  Fixture f;
  // Refresh the upper-half cell: items are all < 500, so every cached
  // partial records an empty outer region for [500, 1000].
  const query::CostedPlan upper =
      f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 500 AND 1000");
  const BundlePartial first = f.cube.serve(upper, 0);
  EXPECT_EQ(first.bundle.core.count, 0u);
  ASSERT_FALSE(upper.steps.empty());

  // A misaligned range inside the proven-empty region: the residue wave
  // prunes every root-child edge, so the collection is free — and exact.
  const auto msgs = f.net.summary().total_messages;
  const query::CostedPlan inner =
      f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 600 AND 700");
  const BundlePartial r = f.cube.serve(inner, 0);
  EXPECT_EQ(r.bundle.core.count, 0u);
  EXPECT_GT(f.cube.stats().residue_edges_pruned, 0u);
  EXPECT_EQ(f.net.summary().total_messages, msgs);
}

TEST(Cube, PruningStopsWhenTheSubtreeChanges) {
  Fixture f;
  const query::CostedPlan upper =
      f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 500 AND 1000");
  f.cube.serve(upper, 0);
  // A node's reading jumps into the range: its root path is dirty, so the
  // emptiness proof no longer covers it and the residue must look again.
  f.net.update_item(63, 0, 650);
  const std::vector<NodeId> touched{63};
  f.dirty.note_updates(touched, 1);
  const query::CostedPlan inner =
      f.plan_for("SELECT COUNT(v) FROM s WHERE v BETWEEN 600 AND 700");
  const BundlePartial r = f.cube.serve(inner, 1);
  EXPECT_EQ(r.bundle.core, direct_core(f.net, inner.region));
  EXPECT_EQ(r.bundle.core.count, 1u);
}

TEST(Cube, StaleBracketContainsTheDriftedTruth) {
  Fixture f;
  const query::CostedPlan plan = f.plan_for("SELECT SUM(v) FROM s");
  ASSERT_EQ(plan.steps.size(), 1u);
  f.cube.serve(plan, 0);

  // Drift every reading by at most kDelta per epoch for three epochs,
  // without telling the cube (no serve) — only the dirty tracker hears.
  std::vector<NodeId> all(64);
  for (NodeId u = 0; u < 64; ++u) all[u] = u;
  for (std::uint32_t e = 1; e <= 3; ++e) {
    for (NodeId u = 0; u < 64; ++u) {
      const Value v = f.net.items(u)[0];
      const Value moved = (u % 2 == 0) ? std::min<Value>(v + kDelta, kBound)
                                       : std::max<Value>(v - kDelta, 0);
      f.net.update_item(u, 0, moved);
    }
    f.dirty.note_updates(all, e);
  }

  const query::RegionSignature whole{0, kBound, true};
  const RangeStats truth = direct_core(f.net, whole);
  const auto check = [&](query::AggregateKind agg, double exact_now) {
    const auto br = f.cube.stale_bracket(plan, agg, kAnyError, 3);
    ASSERT_TRUE(br.has_value()) << agg_name(agg);
    EXPECT_LE(std::abs(exact_now - br->value), br->bound) << agg_name(agg);
  };
  check(query::AggregateKind::kSum, static_cast<double>(truth.sum));
  check(query::AggregateKind::kMin, static_cast<double>(truth.min));
  check(query::AggregateKind::kMax, static_cast<double>(truth.max));
  check(query::AggregateKind::kAvg,
        static_cast<double>(truth.sum) / static_cast<double>(truth.count));
  // Whole-domain membership is static: COUNT stays exact at any staleness.
  const auto count =
      f.cube.stale_bracket(plan, query::AggregateKind::kCount, kAnyError, 3);
  ASSERT_TRUE(count.has_value());
  EXPECT_TRUE(count->exact);
  EXPECT_EQ(count->value, 64.0);
  // The zero-bit path sent nothing.
  EXPECT_GT(f.cube.stats().stale_serves, 0u);
}

TEST(Cube, StaleBracketOnARangedCellIsSoundWithinTheHorizon) {
  Fixture f;
  // [0, 499] is exactly cell (1, 0) for bound 1000.
  const query::CostedPlan plan =
      f.plan_for("SELECT MIN(v) FROM s WHERE v BETWEEN 0 AND 499");
  ASSERT_EQ(plan.steps.size(), 1u);
  ASSERT_EQ(plan.steps[0].kind, query::StepKind::kCubeCell);
  f.cube.serve(plan, 0);

  std::vector<NodeId> all(64);
  for (NodeId u = 0; u < 64; ++u) all[u] = u;
  for (NodeId u = 0; u < 64; ++u) {
    f.net.update_item(u, 0, std::max<Value>(f.net.items(u)[0] - kDelta, 0));
  }
  f.dirty.note_updates(all, 1);

  const RangeStats truth = direct_core(f.net, plan.region);
  for (const query::AggregateKind agg :
       {query::AggregateKind::kCount, query::AggregateKind::kSum,
        query::AggregateKind::kMin, query::AggregateKind::kMax}) {
    const auto br = f.cube.stale_bracket(plan, agg, kAnyError, 1);
    ASSERT_TRUE(br.has_value()) << agg_name(agg);
    const double exact_now =
        agg == query::AggregateKind::kCount ? static_cast<double>(truth.count)
        : agg == query::AggregateKind::kSum ? static_cast<double>(truth.sum)
        : agg == query::AggregateKind::kMin ? static_cast<double>(truth.min)
                                            : static_cast<double>(truth.max);
    EXPECT_LE(std::abs(exact_now - br->value), br->bound) << agg_name(agg);
  }

  // Past the margin horizon the ranged bracket is refused, not fudged.
  EXPECT_FALSE(f.cube
                   .stale_bracket(plan, query::AggregateKind::kSum,
                                  kAnyError, kHorizon + 1)
                   .has_value());
}

TEST(Cube, StaleBracketRefusesNonCellPlansAndColdCells) {
  Fixture f;
  query::CostedPlan tree_plan;
  tree_plan.region = {0, kBound, true};
  tree_plan.steps.push_back(
      {query::StepKind::kTreeCollect, tree_plan.region, {}, 0});
  EXPECT_FALSE(
      f.cube
          .stale_bracket(tree_plan, query::AggregateKind::kSum, kAnyError, 0)
          .has_value());

  // A cube-cell plan whose cell was never refreshed has nothing to bracket.
  const query::CostedPlan cold = f.plan_for("SELECT SUM(v) FROM s");
  ASSERT_EQ(cold.steps[0].kind, query::StepKind::kCubeCell);
  EXPECT_FALSE(
      f.cube.stale_bracket(cold, query::AggregateKind::kSum, kAnyError, 0)
          .has_value());
}

/// The oracle's view of a ranged COUNT_DISTINCT: only in-range readings.
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

TEST(Cube, DistinctEstimateIsByteIdenticalToTheTreeOracle) {
  CubeConfig cfg;
  cfg.distinct_registers = 64;
  Fixture f(cfg);
  // ERROR 0.15 sizes to 64 registers — the cube's own geometry, so the
  // plan is cube-eligible.
  const query::CostedPlan plan =
      f.plan_for("SELECT COUNT_DISTINCT(v) FROM s ERROR 0.15");
  ASSERT_EQ(plan.registers, 64u);
  const BundlePartial r = f.cube.serve(plan, 0);
  ASSERT_TRUE(r.hll.has_value());

  // Twin network, same seed and items, answered by the PR 3 hashed-HLL
  // tree protocol: the cube replicates its sketch geometry (salt, width),
  // so register-max merges reproduce the estimate bit for bit.
  Fixture twin(CubeConfig{});
  const auto oracle = core::approx_count_distinct(
      twin.net, twin.tree, 64, proto::EstimatorKind::kHyperLogLog,
      proto::raw_item_view());
  EXPECT_DOUBLE_EQ(r.hll->estimate(), oracle.estimate);
}

TEST(Cube, RangedDistinctComposesCellsAndResiduesExactly) {
  CubeConfig cfg;
  cfg.distinct_registers = 64;
  Fixture f(cfg);
  const query::CostedPlan plan = f.plan_for(
      "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 0 AND 99 ERROR 0.15");
  const BundlePartial r = f.cube.serve(plan, 0);
  ASSERT_TRUE(r.hll.has_value());

  Fixture twin(CubeConfig{});
  const RegionView view(0, 99);
  const auto oracle = core::approx_count_distinct(
      twin.net, twin.tree, 64, proto::EstimatorKind::kHyperLogLog, view);
  EXPECT_DOUBLE_EQ(r.hll->estimate(), oracle.estimate);
}

TEST(Cube, CostModelTracksActualRefreshState) {
  Fixture f;
  // Cold cube: refreshing the root cell must look at every edge.
  EXPECT_GT(f.cube.cell_refresh_bits({0, 0}), 0u);
  const query::CostedPlan plan = f.plan_for("SELECT COUNT(v) FROM s");
  f.cube.serve(plan, 0);
  // Fresh cell, quiescent network: the next refresh is free, and the
  // planner's cost model knows it.
  EXPECT_EQ(f.cube.cell_refresh_bits({0, 0}), 0u);
  // Tree collection always pays every edge, fresh partials or not.
  const query::RegionSignature whole{0, kBound, true};
  EXPECT_GT(f.cube.tree_collect_bits(whole), 0u);
  EXPECT_EQ(f.cube.tree_collect_bits(whole) % 63u, 0u);
}

/// The cost model's defining semantics, kept as a brute-force reference: an
/// edge is pruned for a region when *any* refreshed cell containing the
/// region (found by scanning every cell) holds a fresh, outer-empty partial
/// for it, and edge counts come from a plain recursive walk.
class ReferenceCostModel {
 public:
  ReferenceCostModel(const Cube& cube, const net::SpanningTree& tree,
                     const DirtyTracker& dirty)
      : cube_(cube), tree_(tree), dirty_(dirty) {}

  std::uint64_t residue_edges(const query::RegionSignature& region,
                              NodeId node) const {
    std::uint64_t edges = 0;
    for (const NodeId child : tree_.children[node]) {
      if (provably_empty(child, region)) continue;
      edges += 1 + residue_edges(region, child);
    }
    return edges;
  }

  std::uint64_t stale_edges(query::CubeCellRef ref, NodeId node) const {
    std::uint64_t edges = 0;
    for (const NodeId child : tree_.children[node]) {
      const auto p = cube_.cached_partial(ref, child);
      if (dirty_.edge_fresh(child,
                            p ? p->epoch : DirtyTracker::kInvalidEpoch)) {
        continue;
      }
      edges += 1 + stale_edges(ref, child);
    }
    return edges;
  }

 private:
  bool provably_empty(NodeId child,
                      const query::RegionSignature& region) const {
    for (unsigned level = 0; level < cube_.levels(); ++level) {
      for (unsigned i = 0; i < (1u << level); ++i) {
        const query::RegionSignature cr = cube_.cell_region({level, i});
        if (cr.lo > region.lo || cr.hi < region.hi) continue;
        const auto p = cube_.cached_partial({level, i}, child);
        if (p && dirty_.edge_fresh(child, p->epoch) &&
            p->bundle.outer.count == 0) {
          return true;
        }
      }
    }
    return false;
  }

  const Cube& cube_;
  const net::SpanningTree& tree_;
  const DirtyTracker& dirty_;
};

query::CostedPlan single_step_plan(query::StepKind kind,
                                   const query::RegionSignature& region,
                                   query::CubeCellRef cell = {}) {
  query::CostedPlan plan;
  plan.region = region;
  query::PlanStep step;
  step.kind = kind;
  step.region = region;
  step.cell = cell;
  plan.steps.push_back(step);
  return plan;
}

query::RegionSignature region_of(Value lo, Value hi) {
  return {lo, hi, lo == 0 && hi == kBound};
}

TEST(Cube, CostModelMatchesTheAllCellsReferenceThroughDriftAndRefreshes) {
  CubeConfig cfg;
  cfg.levels = 6;
  Fixture f(cfg);
  // Two clusters leave whole runs of cells empty, so the reference prunes.
  ValueSet vs(64);
  for (NodeId u = 0; u < 64; ++u) {
    vs[u] = static_cast<Value>(u % 2 == 0 ? 100 + (u * 7) % 150
                                          : 600 + (u * 11) % 100);
  }
  f.net.set_one_item_per_node(vs);
  const ReferenceCostModel ref(f.cube, f.tree, f.dirty);
  const std::uint64_t edges = f.tree.node_count() - 1;
  // Per-edge costs, read off the model where every edge counts: a tree
  // collection, and a refresh of a still-cold cell.
  const auto residue_edge_bits = [&](bool whole) {
    return f.cube.tree_collect_bits(whole ? region_of(0, kBound)
                                          : region_of(0, 10)) /
           edges;
  };
  const std::uint64_t refresh_whole_bits =
      f.cube.cell_refresh_bits({0, 0}) / edges;
  const std::uint64_t refresh_ranged_bits =
      f.cube.cell_refresh_bits({1, 0}) / edges;

  // Every region between two finest-level boundaries, plus random ones.
  const unsigned finest = cfg.levels - 1;
  std::vector<Value> bounds;
  for (unsigned i = 0; i < (1u << finest); ++i) {
    bounds.push_back(f.cube.cell_region({finest, i}).lo);
  }
  bounds.push_back(kBound + 1);
  Xoshiro256 rng(2024);
  const auto random_region = [&] {
    const auto lo = static_cast<Value>(rng.next_below(kBound + 1));
    const auto hi = lo + static_cast<Value>(rng.next_below(
                             static_cast<std::uint64_t>(kBound - lo) + 1));
    return region_of(lo, hi);
  };

  std::uint64_t reference_prunes = 0;
  const auto check = [&](int step) {
    std::vector<query::RegionSignature> regions;
    for (std::size_t a = 0; a < bounds.size(); ++a) {
      for (std::size_t b = a + 1; b < bounds.size(); ++b) {
        regions.push_back(region_of(bounds[a], bounds[b] - 1));
      }
    }
    for (int k = 0; k < 24; ++k) regions.push_back(random_region());
    int mismatches = 0;
    for (const query::RegionSignature& r : regions) {
      const std::uint64_t want = ref.residue_edges(r, f.tree.root);
      reference_prunes += edges - want;
      if (f.cube.residue_collect_bits(r) !=
          want * residue_edge_bits(r.whole_domain)) {
        ++mismatches;
        ADD_FAILURE() << "step " << step << ": residue [" << r.lo << ", "
                      << r.hi << "]";
      }
    }
    for (unsigned level = 0; level < cfg.levels; ++level) {
      for (unsigned i = 0; i < (1u << level); ++i) {
        const std::uint64_t want =
            ref.stale_edges({level, i}, f.tree.root) *
            (level == 0 ? refresh_whole_bits : refresh_ranged_bits);
        if (f.cube.cell_refresh_bits({level, i}) != want) {
          ++mismatches;
          ADD_FAILURE() << "step " << step << ": refresh of cell (" << level
                        << ", " << i << ")";
        }
      }
    }
    return mismatches;
  };

  ASSERT_EQ(check(-1), 0);
  std::uint32_t epoch = 1;
  for (int step = 0; step < 60; ++step) {
    switch (rng.next_below(3)) {
      case 0: {  // drift batch: a few nodes move, some across cell edges
        ++epoch;
        std::vector<NodeId> touched;
        const auto moves = 1 + rng.next_below(6);
        for (std::uint64_t k = 0; k < moves; ++k) {
          const auto u = static_cast<NodeId>(rng.next_below(64));
          const Value shift = static_cast<Value>(rng.next_below(161)) - 80;
          f.net.update_item(
              u, 0, std::clamp<Value>(f.net.items(u)[0] + shift, 0, kBound));
          touched.push_back(u);
        }
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        f.dirty.note_updates(touched, epoch);
        break;
      }
      case 1: {  // refresh one cell
        const auto level = static_cast<unsigned>(rng.next_below(cfg.levels));
        const auto index = static_cast<unsigned>(rng.next_below(1u << level));
        const query::CubeCellRef cell{level, index};
        const BundlePartial r = f.cube.serve(
            single_step_plan(query::StepKind::kCubeCell,
                             f.cube.cell_region(cell), cell),
            epoch);
        EXPECT_EQ(r.bundle.core,
                  direct_core(f.net, f.cube.cell_region(cell)));
        break;
      }
      default: {  // residue serve
        const query::RegionSignature region = random_region();
        const BundlePartial r = f.cube.serve(
            single_step_plan(query::StepKind::kResidueCollect, region), epoch);
        EXPECT_EQ(r.bundle.core, direct_core(f.net, region));
        break;
      }
    }
    ASSERT_EQ(check(step), 0) << "after step " << step;
  }
  // The sequence exercised the pruning oracle, not just the cold model.
  EXPECT_GT(reference_prunes, 0u);
  EXPECT_GT(f.cube.stats().refresh_waves, 0u);
  EXPECT_GT(f.cube.stats().residue_edges_pruned, 0u);
}

TEST(FreshAnswer, StatsAggregatesReadTheCoreExactly) {
  using query::AggregateKind;
  BundlePartial p;
  for (const Value v : {7, 3, 12}) p.bundle.core.observe(v);
  const std::pair<AggregateKind, double> cases[] = {
      {AggregateKind::kCount, 3.0}, {AggregateKind::kSum, 22.0},
      {AggregateKind::kAvg, 22.0 / 3.0}, {AggregateKind::kMin, 3.0},
      {AggregateKind::kMax, 12.0}};
  for (const auto& [agg, value] : cases) {
    const auto a = fresh_answer(agg, p);
    ASSERT_TRUE(a.has_value()) << query::agg_name(agg);
    EXPECT_DOUBLE_EQ(a->value, value) << query::agg_name(agg);
    EXPECT_EQ(a->bound, 0.0) << query::agg_name(agg);
    EXPECT_TRUE(a->exact) << query::agg_name(agg);
  }
}

TEST(FreshAnswer, AnEmptySelectionHasNoAvgMinOrMax) {
  using query::AggregateKind;
  const BundlePartial empty;
  for (const AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum}) {
    const auto a = fresh_answer(agg, empty);
    ASSERT_TRUE(a.has_value()) << query::agg_name(agg);
    EXPECT_EQ(a->value, 0.0) << query::agg_name(agg);
    EXPECT_TRUE(a->exact) << query::agg_name(agg);
  }
  for (const AggregateKind agg :
       {AggregateKind::kAvg, AggregateKind::kMin, AggregateKind::kMax}) {
    EXPECT_FALSE(fresh_answer(agg, empty).has_value())
        << query::agg_name(agg);
  }
}

TEST(FreshAnswer, ASketchEstimatesAndAValueSetCounts) {
  BundleSpec spec;
  spec.hll_registers = 64;
  spec.hll_width = hll_width(64);
  BundlePartial sketch;
  sketch.hll = spec.empty_hll();
  for (const Value v : {4, 8, 15, 16, 23, 42}) {
    sketch.hll->add(static_cast<std::uint64_t>(v), kHllSalt);
  }
  const auto estimate =
      fresh_answer(query::AggregateKind::kCountDistinct, sketch);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_DOUBLE_EQ(estimate->value, sketch.hll->estimate());
  EXPECT_EQ(estimate->bound, 0.0);
  EXPECT_FALSE(estimate->exact);  // a statistical guarantee, not a bracket

  BundlePartial set;
  set.values = {2, 5, 9};
  const auto count = fresh_answer(query::AggregateKind::kCountDistinct, set);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(count->value, 3.0);
  EXPECT_EQ(count->bound, 0.0);
  EXPECT_TRUE(count->exact);
}

}  // namespace
}  // namespace sensornet::cube
