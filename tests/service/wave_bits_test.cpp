// Pins the bits on air of the incremental convergecasts: the region store's
// shared stats and distinct groups and the cube's cell refreshes and residue
// collections. Every figure is an integer total from net.summary(); HLL
// estimates are never compared, so the pins do not depend on libm.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cube/cube.hpp"
#include "src/net/topology.hpp"
#include "src/query/parser.hpp"
#include "src/query/planner.hpp"
#include "src/service/region_store.hpp"

namespace sensornet::service {
namespace {

constexpr Value kBound = 1000;
constexpr Value kDelta = 4;
constexpr std::uint32_t kHorizon = 8;
const cube::DriftModel kDrift{kBound, kDelta, kHorizon};

struct Totals {
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;
  bool operator==(const Totals&) const = default;
};

void PrintTo(const Totals& t, std::ostream* os) {
  *os << "{bits " << t.bits << ", messages " << t.messages << "}";
}

Totals totals(const sim::Network& net) {
  const sim::CommSummary s = net.summary();
  return Totals{s.total_bits, s.total_messages};
}

/// An 8x8 grid with one reading per node in [0, 199].
struct Grid {
  sim::Network net;
  net::SpanningTree tree;
  cube::DirtyTracker dirty;

  Grid() : net(net::make_grid(8, 8), 7), tree(net::bfs_tree(net.graph(), 0)),
           dirty(net, tree) {
    ValueSet vs(64);
    for (NodeId u = 0; u < 64; ++u) {
      vs[u] = static_cast<Value>((u * 37) % 200);
    }
    net.set_one_item_per_node(vs);
  }

  /// Moves each node's reading by `delta` and notes the batch at `epoch` on
  /// the fixture's own tracker.
  void drift(const std::vector<NodeId>& nodes, Value delta,
             std::uint32_t epoch) {
    for (const NodeId u : nodes) net.update_item(u, 0, net.items(u)[0] + delta);
    dirty.note_updates(nodes, epoch);
  }
};

query::CostedPlan plan_for(const cube::Cube& c, const std::string& text) {
  const query::Planner planner(kBound, &c);
  return planner.plan(query::parse_query(text)).value();
}

TEST(WaveBits, SharedStatsCollectionFirstAndIncremental) {
  Grid f;
  RegionStore store(f.net, f.tree, kDrift);

  const GroupId g = store.pin_stats({20, 150, false});
  store.collect(g, 1);
  EXPECT_EQ(totals(f.net), (Totals{8482, 189}));

  const std::vector<NodeId> touched{63, 40, 9};
  for (const NodeId u : touched) {
    f.net.update_item(u, 0, f.net.items(u)[0] + 3);
  }
  store.note_updates(touched, 2);
  store.collect(g, 2);
  EXPECT_EQ(totals(f.net), (Totals{10756, 249}));
}

/// Running totals of a distinct group's life on a fresh grid: after its
/// install, its first refresh, and an incremental refresh after three nodes
/// drift.
std::vector<Totals> distinct_group_totals(
    const query::RegionSignature& region, unsigned registers) {
  Grid f;
  RegionStore store(f.net, f.tree, kDrift);
  std::vector<Totals> out;
  const GroupId g = store.pin_distinct(region, registers);
  out.push_back(totals(f.net));
  store.collect(g, 1);
  out.push_back(totals(f.net));
  const std::vector<NodeId> touched{63, 40, 9};
  for (const NodeId u : touched) {
    f.net.update_item(u, 0, f.net.items(u)[0] + 3);
  }
  store.note_updates(touched, 2);
  store.collect(g, 2);
  out.push_back(totals(f.net));
  return out;
}

TEST(WaveBits, HllDistinctGroupInstallFirstAndIncremental) {
  // Whole domain: the install carries the sketch geometry alone.
  EXPECT_EQ(distinct_group_totals({0, kBound, true}, 64),
            (std::vector<Totals>{{1260, 63}, {7012, 189}, {9902, 249}}));
}

TEST(WaveBits, ExactDistinctGroupInstallFirstAndIncremental) {
  // Ranged: the install carries the range and a zero register count.
  EXPECT_EQ(distinct_group_totals({20, 150, false}, 0),
            (std::vector<Totals>{{1512, 63}, {4078, 189}, {5408, 249}}));
}

TEST(WaveBits, CubeCellRefreshWithHllColdAndIncremental) {
  Grid f;
  cube::CubeConfig cfg;
  cfg.distinct_registers = 64;
  cube::Cube c(f.net, f.tree, kDrift, f.dirty, cfg);

  const query::CostedPlan plan = plan_for(
      c, "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 0 AND 249 "
         "ERROR 0.15");
  ASSERT_EQ(plan.steps.size(), 1u);
  ASSERT_EQ(plan.steps[0].kind, query::StepKind::kCubeCell);
  c.serve(plan, 1);
  EXPECT_EQ(totals(f.net), (Totals{15536, 189}));

  f.drift({63, 40, 9}, 3, 2);
  c.serve(plan, 2);
  EXPECT_EQ(totals(f.net), (Totals{21055, 249}));
  EXPECT_GT(c.stats().cell_edges_skipped, 0u);
}

TEST(WaveBits, CubePrunedResidueCollection) {
  Grid f;
  cube::Cube c(f.net, f.tree, kDrift, f.dirty, cube::CubeConfig{});

  // Refreshing the containing cell leaves per-edge partials that prove some
  // subtrees empty for any range inside it.
  const query::CostedPlan cell =
      plan_for(c, "SELECT COUNT(v) FROM s WHERE v BETWEEN 125 AND 249");
  ASSERT_EQ(cell.steps.size(), 1u);
  ASSERT_EQ(cell.steps[0].kind, query::StepKind::kCubeCell);
  c.serve(cell, 1);
  EXPECT_EQ(totals(f.net), (Totals{6901, 189}));

  const query::CostedPlan residue =
      plan_for(c, "SELECT COUNT(v) FROM s WHERE v BETWEEN 130 AND 140");
  ASSERT_EQ(residue.steps.size(), 1u);
  ASSERT_EQ(residue.steps[0].kind, query::StepKind::kResidueCollect);
  c.serve(residue, 1);
  EXPECT_EQ(totals(f.net), (Totals{10937, 309}));
  EXPECT_GT(c.stats().residue_edges_pruned, 0u);
  EXPECT_GT(c.stats().residue_edges_descended, 0u);

  // With HLL partials the residue request also carries the want-HLL bit.
  Grid h;
  cube::CubeConfig cfg;
  cfg.distinct_registers = 64;
  cube::Cube hc(h.net, h.tree, kDrift, h.dirty, cfg);
  hc.serve(plan_for(hc, "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN "
                        "125 AND 249 ERROR 0.15"),
           1);
  h.drift({63}, 3, 2);
  const query::CostedPlan distinct_residue = plan_for(
      hc, "SELECT COUNT_DISTINCT(v) FROM s WHERE v BETWEEN 130 AND 140 "
          "ERROR 0.15");
  ASSERT_EQ(distinct_residue.steps.size(), 1u);
  ASSERT_EQ(distinct_residue.steps[0].kind, query::StepKind::kResidueCollect);
  hc.serve(distinct_residue, 2);
  EXPECT_EQ(totals(h.net), (Totals{17378, 323}));
}

}  // namespace
}  // namespace sensornet::service
