// The bundle convergecast shared by the service's region store and the
// multiresolution cube, on proto::TreeWave.
//
// Every maintained collection in the service ships one partial, a
// BundlePartial, and BundleSpec is that wave's AggregationSpec. The spec
// says which parts the partial carries:
//
//   stats   — a StatsBundle over a region with the drift margins: shared
//             stats groups, cube cells and residues;
//   HLL     — a hashed sketch over the core region, when hll_registers > 0:
//             the cube's COUNT_DISTINCT partials and approximate distinct
//             groups, in the one-shot sketch geometry (hll_width, kHllSalt);
//   values  — the core region's sorted distinct values, coded as
//             proto::encode_sorted_values: exact distinct groups.
//
// Two request shapes ride it:
//
//   installed — a shared group or a cube cell, whose region, margin and
//               parts an install broadcast already put at every node: the
//               request is a single bit;
//   one-shot  — a cube residue: the request carries the range and a
//               want-HLL bit, and every node decodes the range it was sent.
//
// A MaintainedRegion is a region whose root partial is kept fresh across
// epochs: every shared group of the region store (stats or distinct) and
// every cube cell (a cell is exactly a maintained per-subtree partial). Its
// EdgeStore keeps, per tree edge, the parts the child last sent up and the
// epoch they were taken at; refresh() runs one incremental wave whose
// IncrementalEdges policy serves every edge the dirty tracker certifies
// unchanged from that store, without a message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/types.hpp"
#include "src/cube/dirty.hpp"
#include "src/cube/stats.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/proto/item_view.hpp"
#include "src/proto/tree_wave.hpp"
#include "src/query/plan.hpp"
#include "src/sim/network.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::cube {

/// The HLL partials' geometry. A fresh approx-counting service issues its
/// first (and, per query, only) wave with hash salt 1 and a packed register
/// width for node_count + 1 ranks; the cube's and the region store's
/// sketches use the same geometry, so they reproduce its registers exactly.
constexpr std::uint64_t kHllSalt = 1;
inline std::uint8_t hll_width(std::size_t node_count) {
  return static_cast<std::uint8_t>(sketch::packed_width_for(node_count + 1));
}

/// Node-local bundle over `region` with inner/outer margins of `margin`.
StatsBundle local_bundle(const sim::Network& net, NodeId node,
                         const query::RegionSignature& region, Value margin);

/// Wire codec of a bundle: the core stats, then inner and outer unless the
/// region is the whole domain (the margins then collapse onto the core).
void encode_bundle(BitWriter& w, const StatsBundle& b, bool whole_domain);
StatsBundle decode_bundle(BitReader& r, bool whole_domain);

/// The partial of a bundle wave; only the parts its spec carries are set.
struct BundlePartial {
  StatsBundle bundle;
  std::optional<sketch::Hll> hll;  // when the request wants one
  ValueSet values;                 // sorted distinct values in the core
};

/// AggregationSpec of the bundle wave (see the file comment).
struct BundleSpec {
  struct Request {
    query::RegionSignature region;
    bool want_hll = false;
  };
  using Partial = BundlePartial;

  query::RegionSignature region;  // the installed region, or the one-shot's
  Value margin = 0;
  Value domain_bound = 0;  // a decoded range is whole-domain iff [0, bound]
  // The parts the partial carries (see the file comment).
  bool stats = true;
  unsigned hll_registers = 0;  // HLL geometry; 0 = no sketch
  std::uint8_t hll_width = 0;
  bool values = false;
  bool installed = true;  // false: the request carries the range

  /// The request the root starts the wave with.
  Request request(bool want_hll) const { return {region, want_hll}; }
  /// An empty sketch in the partials' geometry.
  sketch::Hll empty_hll() const;

  void encode_request(BitWriter& w, const Request& req) const;
  Request decode_request(BitReader& r) const;
  void encode_partial(BitWriter& w, const Partial& p, const Request& req) const;
  Partial decode_partial(BitReader& r, const Request& req) const;
  Partial local(sim::Network& net, NodeId node, const Request& req,
                const proto::LocalItemView& view) const;
  void combine(Partial& acc, const Partial& in, const Request& req) const;
};

/// Parent-side partials per tree edge, indexed by the child end of the edge
/// (every non-root node has exactly one parent edge). Empty until sized;
/// a part's vector is sized only when the region's partials carry it.
struct EdgeStore {
  std::vector<StatsBundle> bundle;
  std::vector<std::uint32_t> epoch;  // DirtyTracker::kInvalidEpoch = none
  std::vector<std::optional<sketch::Hll>> hll;
  std::vector<ValueSet> values;

  bool empty() const { return epoch.empty(); }
};

/// A region whose root partial is kept fresh by incremental waves.
struct MaintainedRegion {
  query::RegionSignature region;
  EdgeStore edges;
  BundlePartial root;
  std::uint32_t epoch = DirtyTracker::kInvalidEpoch;  // of the last refresh
};

/// The drift model a maintained region is bracketed under: a reading moves
/// by at most `max_delta` per epoch and stays in [0, domain_bound]; bundles
/// carry margins of margin() = horizon_epochs * max_delta, so ranged
/// regions bracket for up to horizon_epochs of staleness.
struct DriftModel {
  Value domain_bound = 0;
  Value max_delta = 0;
  std::uint32_t horizon_epochs = 0;

  Value margin() const {
    return static_cast<Value>(horizon_epochs) * max_delta;
  }
};

/// The bracket policy: the drift bracket of `m`'s root bundle at
/// `now_epoch` (>= m.epoch), with d = staleness * max_delta and MIN/MAX
/// rails clamped to the region, or to [0, domain_bound] for a whole-domain
/// region. Nullopt when `m` was never refreshed, or is ranged and staler
/// than the horizon its margins cover.
std::optional<BundleBracket> drift_bracket(const MaintainedRegion& m,
                                           std::uint32_t now_epoch,
                                           const DriftModel& model);

/// Edge policy of incremental waves: an edge whose stored partial the dirty
/// tracker certifies fresh is folded from the store (kCached), every other
/// edge descends and its reply is stored at `epoch`. Counts both outcomes
/// and marks each in the trace ring (edge.cached / edge.descend).
struct IncrementalEdges {
  const sim::Network& net;
  const DirtyTracker& dirty;
  EdgeStore& store;
  std::uint32_t epoch;
  std::uint64_t& descended;
  std::uint64_t& skipped;

  proto::EdgeAction edge(NodeId node, NodeId child, BundlePartial& acc);
  void collected(NodeId node, NodeId child, BundlePartial&& in);
};

/// Brings `m` to `epoch` with one incremental wave of `spec` on `session`,
/// sizing the edge store for the spec's parts on the first refresh. Edge
/// outcomes are added to `descended`/`skipped`.
void refresh(sim::Network& net, const net::SpanningTree& tree,
             const DirtyTracker& dirty, const BundleSpec& spec,
             std::uint32_t session, std::uint32_t epoch, MaintainedRegion& m,
             std::uint64_t& descended, std::uint64_t& skipped);

}  // namespace sensornet::cube
