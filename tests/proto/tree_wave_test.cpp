#include "src/proto/tree_wave.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/common/mathutil.hpp"
#include "src/common/workload.hpp"
#include "src/net/topology.hpp"
#include "src/proto/aggregations.hpp"

namespace sensornet::proto {
namespace {

sim::Network make_loaded_network(const net::Graph& g, std::uint64_t seed) {
  sim::Network net(g, seed);
  Xoshiro256 rng(seed);
  ValueSet xs(g.node_count());
  for (auto& x : xs) x = static_cast<Value>(rng.next_below(1000));
  net.set_one_item_per_node(xs);
  return net;
}

TEST(TreeWave, SingleNodeNetworkNeedsNoMessages) {
  sim::Network net(net::make_line(1), 1);
  net.set_items(0, {42});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 0);
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), 1u);
  EXPECT_EQ(net.summary().total_messages, 0u);
}

TEST(TreeWave, CountsOverLine) {
  sim::Network net = make_loaded_network(net::make_line(10), 3);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), 10u);
}

TEST(TreeWave, CountPredicateFilters) {
  sim::Network net(net::make_line(5), 1);
  net.set_one_item_per_node({1, 5, 10, 15, 20});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::less_than(10)}), 2u);
  TreeWave<CountAgg> wave2(tree, 2);
  EXPECT_EQ(wave2.execute(net, {Predicate::greater_equal(15)}), 2u);
}

TEST(TreeWave, MultisetItemsPerNode) {
  sim::Network net(net::make_line(3), 1);
  net.set_items(0, {1, 2, 3});
  net.set_items(1, {});
  net.set_items(2, {4, 4});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 1);
  TreeWave<CountAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), 5u);
}

TEST(TreeWave, MinMaxWithEmptySubtrees) {
  sim::Network net(net::make_line(4), 1);
  net.set_items(0, {});
  net.set_items(1, {17});
  net.set_items(2, {});
  net.set_items(3, {9});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<MinAgg> min_wave(tree, 1);
  const auto min = min_wave.execute(net, {Predicate::always_true()});
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(*min, 9);
  TreeWave<MaxAgg> max_wave(tree, 2);
  const auto max = max_wave.execute(net, {Predicate::always_true()});
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(*max, 17);
}

TEST(TreeWave, MinMaxAllEmptyReturnsNullopt) {
  sim::Network net(net::make_line(3), 1);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<MinAgg> wave(tree, 1);
  EXPECT_FALSE(wave.execute(net, {Predicate::always_true()}).has_value());
}

TEST(TreeWave, SumMatchesLocalSum) {
  sim::Network net = make_loaded_network(net::make_grid(4, 4), 7);
  std::uint64_t expected = 0;
  for (NodeId u = 0; u < 16; ++u) {
    expected += static_cast<std::uint64_t>(net.items(u)[0]);
  }
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 5);
  TreeWave<SumAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), expected);
}

TEST(TreeWave, CollectReturnsSortedMultiset) {
  sim::Network net(net::make_line(4), 1);
  net.set_one_item_per_node({30, 10, 20, 10});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 2);
  TreeWave<CollectAgg> wave(tree, 1);
  const ValueSet all = wave.execute(net, {Predicate::always_true()});
  EXPECT_EQ(all, (ValueSet{10, 10, 20, 30}));
}

TEST(TreeWave, DistinctSetDeduplicates) {
  sim::Network net(net::make_line(5), 1);
  net.set_one_item_per_node({7, 7, 3, 7, 3});
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<DistinctSetAgg> wave(tree, 1);
  const ValueSet d = wave.execute(net, {Predicate::always_true()});
  EXPECT_EQ(d, (ValueSet{3, 7}));
}

TEST(TreeWave, RootsGiveSameAnswer) {
  sim::Network net = make_loaded_network(net::make_grid(5, 5), 11);
  std::uint64_t expected = 0;
  for (NodeId u = 0; u < 25; ++u) {
    expected += static_cast<std::uint64_t>(net.items(u)[0]);
  }
  for (const NodeId root : {0u, 12u, 24u}) {
    const net::SpanningTree tree = net::bfs_tree(net.graph(), root);
    TreeWave<SumAgg> wave(tree, root);
    EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), expected);
  }
}

TEST(TreeWave, PerNodeBitsBoundedOnBoundedDegreeTree) {
  // On a line, a COUNT wave costs every node O(log N) bits: one request,
  // one response per tree edge it touches.
  sim::Network net = make_loaded_network(net::make_line(64), 13);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 1);
  wave.execute(net, {Predicate::always_true()});
  const auto summary = net.summary();
  // request <= ~2 bits, response <= ~2*log2(64)+O(loglog): generous cap 64.
  EXPECT_LE(summary.max_node_bits, 64u);
}

TEST(TreeWave, RoundsEqualTwiceTreeHeight) {
  sim::Network net = make_loaded_network(net::make_line(16), 17);
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  TreeWave<CountAgg> wave(tree, 1);
  wave.execute(net, {Predicate::always_true()});
  EXPECT_EQ(net.now(), 2 * tree.height());
}

// ---- edge policies ----------------------------------------------------------

using EdgeLog = std::vector<std::pair<NodeId, NodeId>>;  // (node, child)

/// Scripted edge policy: a verdict per child node (absent = descend); a
/// cached edge folds `cached_value` into the accumulator. Logs every reply
/// the wave hands to collected().
struct ScriptedEdges {
  const net::SpanningTree* tree = nullptr;
  std::map<NodeId, EdgeAction> verdict;
  std::uint64_t cached_value = 0;
  EdgeLog* log = nullptr;

  EdgeAction edge(NodeId node, std::size_t ci, std::uint64_t& acc) {
    const auto it = verdict.find(tree->children[node][ci]);
    if (it == verdict.end()) return EdgeAction::kDescend;
    if (it->second == EdgeAction::kCached) acc += cached_value;
    return it->second;
  }
  void collected(NodeId node, NodeId child, std::uint64_t&& /*in*/) {
    log->emplace_back(node, child);
  }
};

/// Node u holds the single reading u + 1.
sim::Network make_counting_network(const net::Graph& g) {
  sim::Network net(g, 1);
  ValueSet xs(g.node_count());
  std::iota(xs.begin(), xs.end(), Value{1});
  net.set_one_item_per_node(xs);
  return net;
}

/// Sum of the readings in the subtree below `top` (inclusive).
std::uint64_t subtree_sum(const sim::Network& net,
                          const net::SpanningTree& tree, NodeId top) {
  std::uint64_t sum = 0;
  std::vector<NodeId> stack{top};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    sum += static_cast<std::uint64_t>(net.items(u)[0]);
    for (const NodeId c : tree.children[u]) stack.push_back(c);
  }
  return sum;
}

TEST(TreeWaveEdges, CachedEdgeSendsNothingAndFoldsItsPartial) {
  sim::Network net = make_counting_network(net::make_line(6));
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  EdgeLog log;
  TreeWave<SumAgg, ScriptedEdges> wave(
      tree, 1, raw_item_view(), {},
      ScriptedEdges{&tree, {{3, EdgeAction::kCached}}, 1000, &log});
  // Nodes 0..2 answer for themselves; the subtree below 2 is the cache's.
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), 1u + 2 + 3 + 1000);
  // Two descended edges, one request and one response each.
  EXPECT_EQ(net.summary().total_messages, 4u);
  EXPECT_EQ(log, (EdgeLog{{1, 2}, {0, 1}}));
}

TEST(TreeWaveEdges, PrunedEdgeContributesNothing) {
  sim::Network net = make_counting_network(net::make_line(6));
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  EdgeLog log;
  TreeWave<SumAgg, ScriptedEdges> wave(
      tree, 1, raw_item_view(), {},
      ScriptedEdges{&tree, {{3, EdgeAction::kPrune}}, 1000, &log});
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), 1u + 2 + 3);
  EXPECT_EQ(net.summary().total_messages, 4u);
  EXPECT_EQ(log, (EdgeLog{{1, 2}, {0, 1}}));
}

TEST(TreeWaveEdges, CollectedSeesEachRespondingChildExactlyOnce) {
  sim::Network net = make_counting_network(net::make_grid(5, 5));
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 12);
  EdgeLog log;
  TreeWave<SumAgg, ScriptedEdges> wave(tree, 1, raw_item_view(), {},
                                       ScriptedEdges{&tree, {}, 0, &log});
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}), 25u * 26 / 2);
  EdgeLog expected;
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    if (u != tree.root) expected.emplace_back(tree.parent[u], u);
  }
  std::sort(log.begin(), log.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(log, expected);
}

TEST(TreeWaveEdges, MidTreePruneStillYieldsTheRootResult) {
  sim::Network net = make_counting_network(net::make_grid(6, 6));
  const net::SpanningTree tree = net::bfs_tree(net.graph(), 0);
  // Prune below an interior node two levels down, which still has children
  // of its own, and cache one of the root's edges.
  NodeId mid = 0;
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    if (tree.depth[u] == 2 && !tree.children[u].empty()) {
      mid = u;
      break;
    }
  }
  ASSERT_NE(mid, 0u);
  const NodeId pruned = tree.children[mid].front();
  const NodeId cached = tree.children[tree.root].back();
  ASSERT_NE(tree.parent[mid], cached);
  EdgeLog log;
  TreeWave<SumAgg, ScriptedEdges> wave(
      tree, 1, raw_item_view(), {},
      ScriptedEdges{&tree,
                    {{pruned, EdgeAction::kPrune},
                     {cached, EdgeAction::kCached}},
                    7,
                    &log});
  const std::uint64_t total = subtree_sum(net, tree, tree.root);
  EXPECT_EQ(wave.execute(net, {Predicate::always_true()}),
            total - subtree_sum(net, tree, pruned) -
                subtree_sum(net, tree, cached) + 7);
  for (const auto& [node, child] : log) {
    EXPECT_NE(child, pruned);
    EXPECT_NE(child, cached);
  }
}

class WaveOverTopologies : public ::testing::TestWithParam<net::TopologyKind> {
};

TEST_P(WaveOverTopologies, CountAgreesWithGroundTruth) {
  Xoshiro256 topo_rng(23);
  const net::Graph g = net::make_topology(GetParam(), 60, topo_rng);
  sim::Network net = make_loaded_network(g, 29);
  std::size_t expected = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    expected += sensornet::rank_below(net.items(u), 500);
  }
  const net::SpanningTree tree = net::bfs_tree(g, 0);
  TreeWave<CountAgg> wave(tree, 1);
  EXPECT_EQ(wave.execute(net, {Predicate::less_than(500)}), expected);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, WaveOverTopologies,
                         ::testing::Values(net::TopologyKind::kLine,
                                           net::TopologyKind::kRing,
                                           net::TopologyKind::kGrid,
                                           net::TopologyKind::kComplete,
                                           net::TopologyKind::kBalancedTree,
                                           net::TopologyKind::kGeometric),
                         [](const auto& info) {
                           std::string n = net::topology_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

}  // namespace
}  // namespace sensornet::proto
