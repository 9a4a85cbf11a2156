// The stats-bundle convergecast shared by the shared-plan scheduler and the
// multiresolution cube, on proto::TreeWave.
//
// Every stats collection in the service ships the same partial: a
// StatsBundle over a region with the drift margins, plus, for the cube's
// COUNT_DISTINCT partials, an HLL sketch. BundleSpec is that wave's
// AggregationSpec. Two request shapes ride it:
//
//   installed — a shared group or a cube cell, whose region and margin an
//               install broadcast already put at every node: the request is
//               a single bit;
//   one-shot  — a cube residue: the request carries the range and a
//               want-HLL bit, and every node decodes the range it was sent.
//
// A MaintainedRegion is a region whose root partial is kept fresh across
// epochs: a shared stats group or a cube cell (a cell is exactly a
// maintained per-subtree partial). Its EdgeStore keeps, per tree edge, the
// partial the child last sent up and the epoch it was taken at; refresh()
// runs one incremental wave whose IncrementalEdges policy serves every edge
// the dirty tracker certifies unchanged from that store, without a message.
#pragma once

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

/// The HLL partials' hash salt: a fresh approx-counting service issues its
/// first (and, per query, only) wave with salt 1, so the cube's sketches use
/// the same constant to reproduce its registers exactly.
constexpr std::uint64_t kHllSalt = 1;

/// Node-local bundle over `region` with inner/outer margins of `margin`.
StatsBundle local_bundle(const sim::Network& net, NodeId node,
                         const query::RegionSignature& region, Value margin);

/// Wire codec of a bundle: the core stats, then inner and outer unless the
/// region is the whole domain (the margins then collapse onto the core).
void encode_bundle(BitWriter& w, const StatsBundle& b, bool whole_domain);
StatsBundle decode_bundle(BitReader& r, bool whole_domain);

/// The partial of a bundle wave: the bundle, plus the HLL sketch over the
/// core region when the request asks for one.
struct BundlePartial {
  StatsBundle bundle;
  std::optional<sketch::Hll> hll;
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
  unsigned hll_registers = 0;  // HLL geometry; 0 = stats only
  std::uint8_t hll_width = 0;
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
/// (every non-root node has exactly one parent edge). Empty until sized.
struct EdgeStore {
  std::vector<StatsBundle> bundle;
  std::vector<std::uint32_t> epoch;  // DirtyTracker::kInvalidEpoch = none
  std::vector<std::optional<sketch::Hll>> hll;  // sized only with HLL

  bool empty() const { return epoch.empty(); }
};

/// A region whose root partial is kept fresh by incremental waves.
struct MaintainedRegion {
  query::RegionSignature region;
  EdgeStore edges;
  BundlePartial root;
  std::uint32_t epoch = DirtyTracker::kInvalidEpoch;  // of the last refresh
};

/// Edge policy of incremental waves: an edge whose stored partial the dirty
/// tracker certifies fresh is folded from the store (kCached), every other
/// edge descends and its reply is stored at `epoch`. Counts both outcomes
/// and marks each in the trace ring (edge.cached / edge.descend).
struct IncrementalEdges {
  const sim::Network& net;
  const net::SpanningTree& tree;
  const DirtyTracker& dirty;
  EdgeStore& store;
  std::uint32_t epoch;
  std::uint64_t& descended;
  std::uint64_t& skipped;

  proto::EdgeAction edge(NodeId node, std::size_t ci, BundlePartial& acc);
  void collected(NodeId node, NodeId child, BundlePartial&& in);
};

/// Brings `m` to `epoch` with one incremental wave of `spec` on `session`,
/// sizing the edge store on the first refresh (HLL slots only when the spec
/// has an HLL geometry). Edge outcomes are added to `descended`/`skipped`.
void refresh(sim::Network& net, const net::SpanningTree& tree,
             const DirtyTracker& dirty, const BundleSpec& spec,
             std::uint32_t session, std::uint32_t epoch, MaintainedRegion& m,
             std::uint64_t& descended, std::uint64_t& skipped);

}  // namespace sensornet::cube
