// Coalesced dirty-mark propagation over the spanning tree, shared by every
// incremental consumer: the service's region store and the multiresolution
// cube ride the same wave.
//
// Sensors that change push a 1-bit dirty mark up the tree once per epoch
// (each node forwards at most one mark per epoch, so a batch costs at most
// one message per distinct root-path edge). Every interior node then knows,
// per child edge, the epoch of the last change below it — the freshness
// oracle that lets any incremental collection (shared stats groups, cube
// cell refreshes) skip subtrees that have not changed since their cached
// partial was taken.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/sim/network.hpp"

namespace sensornet::cube {

/// Index of `child` within the node's sorted children list.
std::size_t child_index(const net::SpanningTree& tree, NodeId node,
                        NodeId child);

class DirtyTracker {
 public:
  /// Epochs are 1-based; 0 is "never changed".
  static constexpr std::uint32_t kNever = 0;
  /// "No cached partial" sentinel used by every consumer of the tracker.
  static constexpr std::uint32_t kInvalidEpoch =
      std::numeric_limits<std::uint32_t>::max();

  DirtyTracker(sim::Network& net, const net::SpanningTree& tree);

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  /// Records one epoch's sensor-update batch: stamps the updated nodes and
  /// ships coalesced dirty marks up the tree (bits metered). Must be called
  /// after the updates are applied to the network and before collections of
  /// the same epoch.
  void note_updates(std::span<const NodeId> updated, std::uint32_t epoch);

  /// Epoch of the last change heard from the node's ci-th child edge.
  std::uint32_t child_changed_epoch(NodeId node, std::size_t ci) const {
    return child_changed_epoch_[node][ci];
  }

  /// Epoch of the last change at or below the node.
  std::uint32_t subtree_changed_epoch(NodeId node) const {
    return subtree_changed_epoch_[node];
  }

  /// True when nothing at or below the edge changed after `have` (the epoch
  /// a cached partial was taken at) — the partial is still exact.
  bool edge_fresh(NodeId node, std::size_t ci, std::uint32_t have) const {
    return have != kInvalidEpoch && child_changed_epoch_[node][ci] <= have;
  }

  std::uint64_t mark_messages() const { return mark_messages_; }

  /// Non-empty update batches recorded so far. Freshness (edge_fresh) can
  /// only move when this count does, so consumers memoise against it.
  std::uint64_t batches_noted() const { return batches_noted_; }

 private:
  class MarkWave;

  sim::Network& net_;
  const net::SpanningTree& tree_;
  std::vector<std::uint32_t> subtree_changed_epoch_;
  /// Parallel to tree_.children[n]: epoch of the last change heard from
  /// each child edge.
  std::vector<std::vector<std::uint32_t>> child_changed_epoch_;
  std::uint64_t mark_messages_ = 0;
  std::uint64_t batches_noted_ = 0;
};

}  // namespace sensornet::cube
