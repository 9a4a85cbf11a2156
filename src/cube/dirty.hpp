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
//
// The tracker keeps one parent-side record per tree edge: the epoch of the
// last mark the parent heard over it. Like every per-edge record in the
// service (cube::EdgeStore), it is keyed by the edge's child, which names
// the edge on its own — every non-root node has exactly one parent edge.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/sim/network.hpp"

namespace sensornet::cube {

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

  /// Epoch of the last mark `child`'s parent heard over their edge: the
  /// last change at or below `child`. kNever for the root.
  std::uint32_t edge_changed_epoch(NodeId child) const {
    return edge_changed_epoch_[child];
  }

  /// True when nothing at or below `child` changed after `have` (the epoch
  /// a cached partial of the edge was taken at) — the partial is still
  /// exact.
  bool edge_fresh(NodeId child, std::uint32_t have) const {
    return have != kInvalidEpoch && edge_changed_epoch_[child] <= have;
  }

  std::uint64_t mark_messages() const { return mark_messages_; }

  /// Non-empty update batches recorded so far. Freshness (edge_fresh) can
  /// only move when this count does, so consumers memoise against it.
  std::uint64_t batches_noted() const { return batches_noted_; }

 private:
  class MarkWave;

  sim::Network& net_;
  const net::SpanningTree& tree_;
  /// By child: epoch of the last mark heard over the child's parent edge.
  std::vector<std::uint32_t> edge_changed_epoch_;
  std::uint64_t mark_messages_ = 0;
  std::uint64_t batches_noted_ = 0;
};

}  // namespace sensornet::cube
