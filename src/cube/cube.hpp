// Multiresolution aggregation cube.
//
// The cube slices the value domain [0, max_value_bound] into dyadic cells:
// level l has 2^l cells, cell (l, i) covering
//
//   [ floor(i * (B+1) / 2^l),  floor((i+1) * (B+1) / 2^l) - 1 ]
//
// so cell boundaries nest (cell (l, i) is exactly the union of its two
// children (l+1, 2i) and (l+1, 2i+1)) and level 0 is the whole domain. Every
// cell maintains a per-subtree partial aggregate at each tree node: a
// PASS-style StatsBundle (COUNT/SUM/MIN/MAX over the cell, its margin-shrunk
// inner and margin-grown outer companions) and, when configured, an HLL
// sketch for COUNT_DISTINCT. Partials are kept incrementally fresh by the
// same coalesced dirty-mark wave the service's region store rides
// (cube::DirtyTracker): a cell refresh descends only into subtrees that
// changed since the cached partial was taken, so a quiescent network
// refreshes for free. A cell is a MaintainedRegion and refreshes through
// cube::refresh (wave.hpp), the same incremental proto::TreeWave that
// collects a shared stats group.
//
// The planner sees the cube through the query::CubeCatalog interface —
// geometry plus a deterministic bit-cost model — and decomposes a range
// query into the fewest covering cells plus *residue* collections for the
// unaligned ends. A residue collection is a one-shot wave (the same bundle
// spec, with the range in the request) whose edge policy prunes
// subtrees provably empty for its range: an edge is skipped when some
// containing cell's cached partial shows an empty outer region and the
// dirty tracker proves nothing below changed since — the subtree's items
// are literally identical, so the prune is exact, not approximate.
//
// Because cells nest, the cells containing a region are exactly the
// ancestors of its deepest containing cell, so the pruning oracle scans that
// chain of at most `levels` cells rather than the whole grid, and a pruned
// edge count depends on the region only through that deepest cell. The cost
// model memoises per cell: residue_collect_bits keeps the pruned edge count
// by deepest containing cell, cell_refresh_bits the stale edge count of each
// cell. The counts move only when freshness does. A non-empty batch on the
// dirty tracker (DirtyTracker::batches_noted) drops the whole memo; a cell
// refresh moves only that cell's partials, so it drops that cell's stale
// count and the residue counts of its descendants, the cells whose chain
// passes through it. A mutex guards the memo: concurrent planners may probe
// one const cube.
//
// Answers composed from fresh cells + residues are byte-identical to a
// whole-tree collection: cell regions partition the query range, stats
// combine losslessly, and HLL partials replicate the oracle's exact sketch
// geometry (salt 1, width for node_count+1 ranks), so register-max merges
// reproduce the oracle's registers bit for bit.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/types.hpp"
#include "src/cube/dirty.hpp"
#include "src/cube/stats.hpp"
#include "src/cube/wave.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/query/aggregate.hpp"
#include "src/query/plan.hpp"
#include "src/sim/network.hpp"

namespace sensornet::cube {

struct CubeConfig {
  /// Resolution levels; the finest level has 2^(levels-1) cells and must
  /// not out-resolve the domain ((1 << (levels-1)) <= domain_bound + 1).
  unsigned levels = 4;
  /// HLL registers of the COUNT_DISTINCT partials; 0 = stats only.
  unsigned distinct_registers = 0;
};

/// Cumulative cube telemetry.
struct CubeStats {
  std::uint64_t refresh_waves = 0;       // cell refreshes that ran
  std::uint64_t cell_edges_descended = 0;
  std::uint64_t cell_edges_skipped = 0;  // served from cached partials
  std::uint64_t residue_waves = 0;
  std::uint64_t residue_edges_descended = 0;
  std::uint64_t residue_edges_pruned = 0;  // subtrees proven empty
  std::uint64_t fresh_serves = 0;
  std::uint64_t stale_serves = 0;
  std::uint64_t geometry_installs = 0;  // lazy one-time broadcast
};

/// One fresh serve's composition: the exact bundle over the plan's region
/// at the serve epoch, plus the merged distinct estimate when asked for.
struct ServeResult {
  StatsBundle bundle;
  double distinct_estimate = 0.0;
  bool has_distinct = false;
  std::size_t cells_used = 0;
  std::size_t residues_run = 0;
};

class Cube final : public query::CubeCatalog {
 public:
  /// The domain is [0, drift.domain_bound]; cell bundles carry margins of
  /// drift.margin(), so ranged cells bracket up to drift.horizon_epochs of
  /// staleness, and the planner amortizes refresh costs over that horizon.
  /// `dirty` is the shared freshness oracle (in the service, the region
  /// store's); it must outlive the cube, and its note_updates() must run
  /// each epoch before serves of that epoch.
  Cube(sim::Network& net, const net::SpanningTree& tree,
       const DriftModel& drift, const DirtyTracker& dirty, CubeConfig config);
  ~Cube() override;

  Cube(const Cube&) = delete;
  Cube& operator=(const Cube&) = delete;

  // ---- query::CubeCatalog (the planner's window) -------------------------
  unsigned levels() const override { return config_.levels; }
  Value domain_bound() const override { return drift_.domain_bound; }
  query::RegionSignature cell_region(query::CubeCellRef ref) const override;
  unsigned distinct_registers() const override {
    return config_.distinct_registers;
  }
  std::uint64_t cell_refresh_bits(query::CubeCellRef ref) const override;
  std::uint64_t residue_collect_bits(
      const query::RegionSignature& region) const override;
  std::uint64_t tree_collect_bits(
      const query::RegionSignature& region) const override;
  std::uint32_t refresh_amortization() const override {
    return drift_.horizon_epochs;
  }

  // ---- serving -----------------------------------------------------------
  /// Executes the plan's steps at `epoch`: brings each cube-cell step's cell
  /// up to the epoch (incremental descent), runs pruned residue collections
  /// for the rest, and composes the exact bundle (plus the HLL estimate for
  /// approx-distinct plans). The first serve pays a one-time geometry
  /// install broadcast.
  ServeResult serve(const query::CostedPlan& plan, std::uint32_t epoch);

  /// Zero-bit serve: composes per-cell drift brackets (drift_bracket) at
  /// each cell's own staleness and counts a stale serve. Returns nullopt when
  /// the plan has non-cell steps, a cell has no drift bracket, the aggregate
  /// is not bracketable from stats bundles, or the composed bound fails the
  /// ERROR tolerance `epsilon` (error_slack; absent = exact required).
  std::optional<BracketedAnswer> stale_bracket(const query::CostedPlan& plan,
                                               query::AggregateKind agg,
                                               std::optional<double> epsilon,
                                               std::uint32_t now_epoch) const;

  const CubeStats& stats() const { return stats_; }
  std::size_t cell_count() const { return cells_.size(); }
  /// Row-major cell numbering: level 0 first, 2^l cells per level. Heap
  /// order, so the parent of ordinal o > 0 is (o - 1) / 2.
  static std::size_t cell_ordinal(query::CubeCellRef ref) {
    return ((std::size_t{1} << ref.level) - 1) + ref.index;
  }

  /// A parent-side partial cached by a cell refresh: the bundle of the
  /// subtree below a tree edge and the epoch it was taken at.
  struct EdgePartial {
    StatsBundle bundle;
    std::uint32_t epoch = DirtyTracker::kInvalidEpoch;
  };
  /// What cell `ref` caches for `child`'s parent edge; nullopt before the
  /// cell's first refresh.
  std::optional<EdgePartial> cached_partial(query::CubeCellRef ref,
                                            NodeId child) const;

 private:
  struct ResidueEdges;

  MaintainedRegion& cell(query::CubeCellRef ref);
  const MaintainedRegion& cell(query::CubeCellRef ref) const;
  /// The bundle wave over `region` with the cube's margin and the oracle's
  /// exact sketch geometry.
  BundleSpec spec_for(const query::RegionSignature& region) const;
  /// Ordinal of the deepest cell containing `region` (lo <= hi), or
  /// kNoCell when even the whole domain does not contain it.
  std::size_t deepest_containing_cell(
      const query::RegionSignature& region) const;
  /// True when the cached partials of some cell containing the region —
  /// the chain from `deepest` (a deepest_containing_cell result) up to the
  /// root — prove the subtree below `child` holds nothing relevant to the
  /// region. Exact, because the dirty tracker certifies the subtree is
  /// unchanged since the proof.
  bool subtree_provably_empty(NodeId child, std::size_t deepest) const;
  void ensure_geometry_installed();
  /// Incremental refresh of one cell to `epoch`; no-op when already there.
  void refresh_cell(query::CubeCellRef ref, std::uint32_t epoch);
  /// One-shot pruned collection, with the HLL partial when `want_hll`.
  BundlePartial collect_range(const query::RegionSignature& region,
                              bool want_hll);

  /// Estimated wire bits of one descend-and-respond edge for a region
  /// (request + response, headers included).
  std::uint64_t edge_cost_bits(bool whole_domain, bool carries_region) const;
  /// Edges a top-down wave descends when it skips every edge whose child
  /// `skip` accepts (and so everything below it). Iterative: trees may be
  /// deep.
  template <typename Skip>
  std::uint64_t count_descended_edges(Skip skip) const;
  /// memo[slot], filled by `count()` when unknown. Drops every memoised
  /// count first if the dirty tracker noted a batch since they were taken.
  template <typename Count>
  std::uint64_t memoised(std::vector<std::uint64_t>& memo, std::size_t slot,
                         Count count) const;
  /// Drops the memoised counts a refresh of cell `ordinal` can change.
  void forget_cell_costs(std::size_t ordinal);

  sim::Network& net_;
  const net::SpanningTree& tree_;
  DriftModel drift_;
  const DirtyTracker& dirty_;
  CubeConfig config_;
  bool geometry_installed_ = false;
  std::vector<MaintainedRegion> cells_;  // by cell_ordinal
  std::uint32_t next_residue_session_;
  // Telemetry, not state: the zero-bit stale path counts from const context.
  mutable CubeStats stats_;

  static constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);
  static constexpr std::uint64_t kUnknown = static_cast<std::uint64_t>(-1);
  // Cost-model memo (see the header comment); the stamp is the tracker's
  // batch count the memoised counts were taken at.
  mutable std::mutex memo_mu_;
  mutable std::uint64_t memo_batches_noted_ = 0;
  /// Pruned residue edges by deepest containing cell; the last slot is for
  /// regions no cell contains.
  mutable std::vector<std::uint64_t> residue_edges_memo_;
  /// Stale edges by cell ordinal.
  mutable std::vector<std::uint64_t> stale_edges_memo_;
};

}  // namespace sensornet::cube
