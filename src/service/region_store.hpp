// The service's one store of maintained regions: shared aggregation and the
// bounded-error result cache in one store of region-keyed entries.
//
// TAG/TinyDB lineage: continuous queries over the same region should ride
// one spanning-tree aggregation, not re-run it per client. Every entry is a
// cube::MaintainedRegion (region, per-edge partials, root partial, epoch) of
// one of two kinds:
//
//   pinned    — a shared group. A stats group (keyed by its region) lets
//               the COUNT/SUM/AVG/MIN/MAX subscribers of one region share
//               one stats-bundle wave per epoch; a distinct group (keyed by
//               region and registers) does the same for COUNT_DISTINCT with
//               an HLL sketch or, for exact subscribers, the sorted distinct
//               values. The install broadcast is paid once, collect()
//               refreshes the per-edge partials with cube::refresh, and the
//               entry is never evicted.
//   root-only — a cube serve's composed bundle (no per-edge state). Only
//               these count against the capacity; the stalest goes first.
//
// Refreshes are incremental. Sensors that change push a coalesced 1-bit
// dirty mark up the tree (cube::DirtyTracker, shared with the cube), and a
// refresh descends only into subtrees that changed since the entry's
// partial for that edge was taken. A quiescent network refreshes for free.
//
// Lookups bracket a stats entry itself (the PASS idea): under the drift
// model a bundle frozen at epoch t still brackets the current aggregate at
// t + s (cube::drift_bracket). A lookup serves when the bracket meets the
// query's ERROR (cube::error_slack); without ERROR only a zero bound serves.
// At staleness 0 that holds for whole-domain regions, but a ranged bracket
// still spans inner to outer margin, so exact ranged queries always collect.
// Served answers cost zero bits. Distinct groups have nothing to bracket.
//
// The store assumes the service's deployment discipline: lossless links and
// serial execution. A lost message leaves a wave without its root result,
// and TreeWave ends every such wave in ProtocolError.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/types.hpp"
#include "src/cube/dirty.hpp"
#include "src/cube/stats.hpp"
#include "src/cube/wave.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/query/aggregate.hpp"
#include "src/query/plan.hpp"
#include "src/sim/network.hpp"

namespace sensornet::service {

using cube::RangeStats;
using cube::StatsBundle;
using GroupId = std::uint32_t;

/// Monotonic lookup outcomes. Every hit is a zero-bit answer; `exact_hits`
/// is the bound == 0 subset. `hits` counts only lookup() successes — probe(),
/// the service's planning pass, never counts a hit — so hits equals answers
/// actually served from the store.
struct CacheCounters {
  std::uint64_t probes = 0;      // probe() calls
  std::uint64_t lookups = 0;     // lookup() calls
  std::uint64_t hits = 0;        // lookup() served an answer
  std::uint64_t exact_hits = 0;  // ... with bound == 0
  std::uint64_t misses = 0;      // bracket exists but fails the tolerance
  std::uint64_t expired = 0;     // ranged entry older than the horizon
  std::uint64_t absent = 0;      // no bundle held for the region at all
};

/// Wave telemetry — the sharing/incrementality story in numbers.
struct SharedPlanStats {
  std::uint64_t stats_waves = 0;       // stats-group refreshes executed
  std::uint64_t distinct_waves = 0;    // distinct-group refreshes executed
  std::uint64_t edges_descended = 0;   // request messages sent by stats waves
  std::uint64_t edges_skipped = 0;     // child partials served from the store
  std::uint64_t mark_messages = 0;     // dirty-mark messages shipped
  std::uint64_t groups_created = 0;
};

class RegionStore {
 public:
  /// Bundles carry margins of drift.margin(), so ranged entries bracket for
  /// drift.horizon_epochs epochs. `capacity` bounds root-only entries.
  RegionStore(sim::Network& net, const net::SpanningTree& tree,
              const cube::DriftModel& drift, std::size_t capacity = 1024);

  RegionStore(const RegionStore&) = delete;
  RegionStore& operator=(const RegionStore&) = delete;

  /// The shared stats group of `region`, pinned on first use. A ranged
  /// group pays one install broadcast (nodes must learn the range and
  /// margin they aggregate over; those bits are metered like any others).
  GroupId pin_stats(const query::RegionSignature& region);
  /// The distinct group of (`region`, `registers`), pinned on first use:
  /// `registers` == 0 keeps the sorted distinct values (exact), otherwise an
  /// HLL sketch of that many registers in the one-shot geometry
  /// (cube::hll_width, cube::kHllSalt). Its install broadcast, paid even
  /// over the whole domain, carries the range when ranged and the register
  /// count, plus the width and salt of a sketch.
  GroupId pin_distinct(const query::RegionSignature& region,
                       unsigned registers);

  /// Records one epoch's sensor-update batch: stamps the updated nodes and
  /// ships coalesced dirty marks up the tree (bits metered). Call after the
  /// updates are applied and before any refresh of the same epoch.
  void note_updates(std::span<const NodeId> updated, std::uint32_t epoch);

  /// Brings a group to `epoch` with one incremental wave; idempotent within
  /// an epoch (no bits). Returns the group's root partial: the stats bundle
  /// of a stats group, the sketch or the sorted distinct values of a
  /// distinct group.
  const cube::BundlePartial& collect(GroupId group, std::uint32_t epoch);

  /// Holds a cube serve's composed bundle as a root-only entry. A pinned
  /// region or an entry already taken at `epoch` is kept as it is.
  void store(const query::RegionSignature& region, std::uint32_t epoch,
             const StatsBundle& bundle);

  /// The answer the region's entry brackets (cube::drift_bracket) when it
  /// meets `epsilon` (cube::error_slack; absent = exact required); counts a
  /// hit or the failure's kind. Call it only when a success will be served.
  std::optional<cube::BracketedAnswer> lookup(
      const query::RegionSignature& region, query::AggregateKind agg,
      std::optional<double> epsilon, std::uint32_t now_epoch) const;
  /// lookup() for the planning pass: a success counts nothing, since a
  /// groupmate may still force a fresh collection. Failures still classify.
  std::optional<cube::BracketedAnswer> probe(
      const query::RegionSignature& region, query::AggregateKind agg,
      std::optional<double> epsilon, std::uint32_t now_epoch) const;

  /// The freshness oracle of every incremental refresh (the store's and
  /// the cube's).
  const cube::DirtyTracker& dirty() const { return dirty_; }
  /// The drift model every bracket and margin follows (the store's and the
  /// cube's).
  const cube::DriftModel& drift() const { return drift_; }
  const CacheCounters& counters() const { return counters_; }
  const SharedPlanStats& stats() const { return stats_; }
  /// Entries held: pinned groups of either kind and root-only entries.
  std::size_t size() const { return regions_.size() + distinct_.size(); }

 private:
  struct Entry {
    cube::MaintainedRegion state;
    std::optional<GroupId> group;  // set: pinned
  };
  /// One shared group: its pinned entry and the parts its partial carries.
  struct Group {
    std::uint32_t session = 0;
    cube::MaintainedRegion* state = nullptr;
    cube::BundleSpec spec;
  };

  /// Pins `e` as a group of `spec` under a fresh session and pays its
  /// install broadcast.
  GroupId pin(Entry& e, const cube::BundleSpec& spec);
  std::optional<cube::BracketedAnswer> check(
      const query::RegionSignature& region, query::AggregateKind agg,
      std::optional<double> epsilon, std::uint32_t now_epoch,
      bool count_hit) const;

  sim::Network& net_;
  const net::SpanningTree& tree_;
  cube::DriftModel drift_;
  std::size_t capacity_;
  cube::DirtyTracker dirty_;
  std::map<query::RegionSignature, Entry> regions_;
  std::size_t root_only_ = 0;
  std::map<std::pair<query::RegionSignature, unsigned>, Entry> distinct_;
  std::vector<Group> groups_;
  std::uint32_t next_session_ = 0x7000;
  SharedPlanStats stats_;
  // Outcome telemetry is observability, not state: const lookups may count.
  mutable CacheCounters counters_;
};

}  // namespace sensornet::service
