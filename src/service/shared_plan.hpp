// Shared-aggregation scheduler: one in-network collection per epoch per
// (region, aggregate-family) group, no matter how many queries subscribe.
//
// TAG/TinyDB lineage: continuous queries over the same region should ride
// one spanning-tree aggregation, not re-run it per client. The scheduler
// keeps one *group* per distinct (region, family) key:
//
//   kStats    — COUNT/SUM/AVG/MIN/MAX share one stats-bundle wave (the
//               bundle also carries the result cache's inner/outer margins)
//   kDistinct — COUNT_DISTINCT queries share one set-union / HLL wave per
//               (region, registers) key
//
// Collections are *incremental*. Sensors that change push a coalesced 1-bit
// dirty mark up the tree (cube::DirtyTracker — shared with the
// multiresolution cube, which rides the same wave), so every interior node
// knows, per child edge, the epoch of the last change below it. A
// collection wave then descends only into subtrees that changed since the
// group's cached partial for that edge — unchanged subtrees are answered
// from the parent-side cache without a single message. A fully quiescent
// network collects for free. A stats group is a cube::MaintainedRegion and
// collects through cube::refresh, the same incremental proto::TreeWave that
// refreshes a cube cell.
//
// The scheduler assumes the service's deployment discipline: lossless links
// and serial execution (one collection at a time on the shared simulated
// medium). A lost message leaves a collection wave without its root
// result, and TreeWave ends every such wave in ProtocolError.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/types.hpp"
#include "src/cube/dirty.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/query/plan.hpp"
#include "src/service/result_cache.hpp"
#include "src/sim/network.hpp"

namespace sensornet::service {

using GroupId = std::uint32_t;

/// Scheduler telemetry — the sharing/incrementality story in numbers.
struct SharedPlanStats {
  std::uint64_t stats_waves = 0;       // stats-bundle collections executed
  std::uint64_t distinct_waves = 0;    // distinct collections executed
  std::uint64_t edges_descended = 0;   // request messages sent by stats waves
  std::uint64_t edges_skipped = 0;     // child partials served from cache
  std::uint64_t mark_messages = 0;     // dirty-mark messages shipped
  std::uint64_t groups_created = 0;
};

class SharedPlanScheduler {
 public:
  /// `horizon_epochs` sets the bundle's inner/outer margin to
  /// horizon * max_delta — entries stay bracketing for that many epochs.
  SharedPlanScheduler(sim::Network& net, const net::SpanningTree& tree,
                      Value max_value_bound, Value max_delta,
                      std::uint32_t horizon_epochs);
  ~SharedPlanScheduler();

  SharedPlanScheduler(const SharedPlanScheduler&) = delete;
  SharedPlanScheduler& operator=(const SharedPlanScheduler&) = delete;

  /// Returns the stats group for `region`, creating it on first use. A new
  /// group pays one region-install broadcast (nodes must learn the range
  /// and margin they aggregate over — those bits are metered like any
  /// others).
  GroupId ensure_stats_group(const query::RegionSignature& region);

  /// The distinct-family analogue; `registers` == 0 selects the exact
  /// set-union wave, otherwise a hashed-HLL wave of that many registers.
  GroupId ensure_distinct_group(const query::RegionSignature& region,
                                unsigned registers);

  /// Records one epoch's sensor-update batch: stamps the updated nodes and
  /// ships coalesced dirty marks up the tree (bits metered). Must be called
  /// after the updates are applied to the network and before collections of
  /// the same epoch.
  void note_updates(std::span<const NodeId> updated, std::uint32_t epoch);

  /// One shared stats collection; idempotent within an epoch (the second
  /// call returns the cached root bundle without touching the network).
  const StatsBundle& collect_stats(GroupId group, std::uint32_t epoch);

  /// One shared distinct collection; idempotent within an epoch. Returns
  /// the estimate (exact count for register-less groups).
  double collect_distinct(GroupId group, std::uint32_t epoch);

  /// The freshness oracle behind every incremental consumer (this
  /// scheduler's stats waves, the cube's cell refreshes).
  const cube::DirtyTracker& dirty() const { return dirty_; }

  const SharedPlanStats& stats() const { return stats_; }
  std::size_t group_count() const { return groups_.size(); }

 private:
  struct Group;
  class RegionView;

  sim::Network& net_;
  const net::SpanningTree& tree_;
  Value max_value_bound_;
  Value max_delta_;
  std::uint32_t horizon_epochs_;

  /// Per-node dirty tracking, physically resident at nodes (extracted to
  /// cube::DirtyTracker in PR 10 so the cube can share the mark wave).
  cube::DirtyTracker dirty_;

  std::vector<std::unique_ptr<Group>> groups_;
  std::map<std::pair<query::RegionSignature, unsigned>, GroupId>
      stats_index_;  // unused unsigned slot keeps one map type for both
  std::map<std::pair<query::RegionSignature, unsigned>, GroupId>
      distinct_index_;

  std::uint32_t next_session_ = 0x7000;
  SharedPlanStats stats_;
};

}  // namespace sensornet::service
