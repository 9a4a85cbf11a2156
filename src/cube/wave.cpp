#include "src/cube/wave.hpp"

#include <algorithm>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/aggregations.hpp"

namespace sensornet::cube {

StatsBundle local_bundle(const sim::Network& net, NodeId node,
                         const query::RegionSignature& region, Value margin) {
  StatsBundle b;
  if (region.whole_domain) {
    // Membership is static over the whole domain: the margins collapse and
    // one RangeStats describes all three regions.
    for (const Value v : net.items(node)) b.core.observe(v);
    b.inner = b.core;
    b.outer = b.core;
    return b;
  }
  for (const Value v : net.items(node)) {
    if (v >= region.lo && v <= region.hi) b.core.observe(v);
    if (v >= region.lo + margin && v <= region.hi - margin) b.inner.observe(v);
    if (v >= region.lo - margin && v <= region.hi + margin) b.outer.observe(v);
  }
  return b;
}

void encode_bundle(BitWriter& w, const StatsBundle& b, bool whole_domain) {
  encode_range_stats(w, b.core);
  if (!whole_domain) {
    encode_range_stats(w, b.inner);
    encode_range_stats(w, b.outer);
  }
}

StatsBundle decode_bundle(BitReader& r, bool whole_domain) {
  StatsBundle b;
  b.core = decode_range_stats(r);
  if (whole_domain) {
    b.inner = b.core;
    b.outer = b.core;
  } else {
    b.inner = decode_range_stats(r);
    b.outer = decode_range_stats(r);
  }
  return b;
}

// ---- BundleSpec -----------------------------------------------------------

sketch::Hll BundleSpec::empty_hll() const {
  return sketch::Hll::make_by_registers(
             hll_registers,
             sketch::HllOptions{.width = hll_width, .sparse = true})
      .value();
}

void BundleSpec::encode_request(BitWriter& w, const Request& req) const {
  if (installed) {
    w.write_bit(true);
    return;
  }
  encode_uint(w, static_cast<std::uint64_t>(req.region.lo));
  encode_uint(w, static_cast<std::uint64_t>(req.region.hi - req.region.lo));
  w.write_bit(req.want_hll);
}

BundleSpec::Request BundleSpec::decode_request(BitReader& r) const {
  if (installed) {
    r.read_bit();
    return request(hll_registers > 0);
  }
  Request req;
  req.region.lo = static_cast<Value>(decode_uint(r));
  req.region.hi = req.region.lo + static_cast<Value>(decode_uint(r));
  req.region.whole_domain = req.region.lo == 0 && req.region.hi == domain_bound;
  req.want_hll = r.read_bit();
  return req;
}

void BundleSpec::encode_partial(BitWriter& w, const Partial& p,
                                const Request& req) const {
  if (stats) encode_bundle(w, p.bundle, req.region.whole_domain);
  if (req.want_hll) p.hll->encode(w);
  if (values) proto::encode_sorted_values(w, p.values, /*unique=*/true);
}

BundlePartial BundleSpec::decode_partial(BitReader& r,
                                         const Request& req) const {
  BundlePartial p;
  if (stats) p.bundle = decode_bundle(r, req.region.whole_domain);
  if (req.want_hll) p.hll = sketch::Hll::decode(r).value();
  if (values) p.values = proto::decode_sorted_values(r, /*unique=*/true);
  return p;
}

BundlePartial BundleSpec::local(sim::Network& net, NodeId node,
                                const Request& req,
                                const proto::LocalItemView& /*view*/) const {
  BundlePartial p;
  if (stats) p.bundle = local_bundle(net, node, req.region, margin);
  if (req.want_hll) p.hll = empty_hll();
  if (!req.want_hll && !values) return p;
  const query::RegionSignature& r = req.region;
  for (const Value v : net.items(node)) {
    if (!r.whole_domain && (v < r.lo || v > r.hi)) continue;
    if (p.hll) p.hll->add(static_cast<std::uint64_t>(v), kHllSalt);
    if (values) p.values.push_back(v);
  }
  if (values) {
    std::sort(p.values.begin(), p.values.end());
    p.values.erase(std::unique(p.values.begin(), p.values.end()),
                   p.values.end());
  }
  return p;
}

void BundleSpec::combine(Partial& acc, const Partial& in,
                         const Request& req) const {
  if (stats) acc.bundle.combine(in.bundle);
  if (req.want_hll) acc.hll->merge(*in.hll).value();
  if (values) {
    proto::merge_sorted_values(acc.values, in.values, /*unique=*/true);
  }
}

// ---- bracket policy -------------------------------------------------------

std::optional<BundleBracket> drift_bracket(const MaintainedRegion& m,
                                           std::uint32_t now_epoch,
                                           const DriftModel& model) {
  if (m.epoch == DirtyTracker::kInvalidEpoch) return std::nullopt;
  SENSORNET_EXPECTS(now_epoch >= m.epoch);
  const std::uint32_t staleness = now_epoch - m.epoch;
  const query::RegionSignature& r = m.region;
  // Ranged regions are bracketed by the inner/outer margins, which only
  // cover drifts up to the horizon.
  if (!r.whole_domain && staleness > model.horizon_epochs) return std::nullopt;
  const double d =
      static_cast<double>(staleness) * static_cast<double>(model.max_delta);
  // A range aggregate cannot leave its range, nor any value the domain.
  const Value lo = r.whole_domain ? 0 : r.lo;
  const Value hi = r.whole_domain ? model.domain_bound : r.hi;
  return bracket_bundle(m.root.bundle, r.whole_domain, d,
                        static_cast<double>(lo), static_cast<double>(hi));
}

// ---- incremental refresh --------------------------------------------------

proto::EdgeAction IncrementalEdges::edge(NodeId node, NodeId child,
                                         BundlePartial& acc) {
  const bool fresh = dirty.edge_fresh(child, store.epoch[child]);
  if (fresh) {
    if (!store.bundle.empty()) acc.bundle.combine(store.bundle[child]);
    if (acc.hll) acc.hll->merge(*store.hll[child]).value();
    if (!store.values.empty()) {
      proto::merge_sorted_values(acc.values, store.values[child],
                                 /*unique=*/true);
    }
    ++skipped;
  } else {
    ++descended;
  }
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant(fresh ? "edge.cached" : "edge.descend", "service",
                 net.now(), 0, "node", node, "child", child);
  }
  return fresh ? proto::EdgeAction::kCached : proto::EdgeAction::kDescend;
}

void IncrementalEdges::collected(NodeId /*node*/, NodeId child,
                                 BundlePartial&& in) {
  store.epoch[child] = epoch;
  if (!store.bundle.empty()) store.bundle[child] = in.bundle;
  if (in.hll) store.hll[child] = std::move(in.hll);
  if (!store.values.empty()) store.values[child] = std::move(in.values);
}

void refresh(sim::Network& net, const net::SpanningTree& tree,
             const DirtyTracker& dirty, const BundleSpec& spec,
             std::uint32_t session, std::uint32_t epoch, MaintainedRegion& m,
             std::uint64_t& descended, std::uint64_t& skipped) {
  if (m.edges.empty()) {
    const std::size_t n = tree.node_count();
    m.edges.epoch.assign(n, DirtyTracker::kInvalidEpoch);
    if (spec.stats) m.edges.bundle.resize(n);
    if (spec.hll_registers > 0) m.edges.hll.resize(n);
    if (spec.values) m.edges.values.resize(n);
  }
  proto::TreeWave<BundleSpec, IncrementalEdges> wave(
      tree, session, proto::raw_item_view(), spec,
      IncrementalEdges{net, dirty, m.edges, epoch, descended, skipped});
  m.root = wave.execute(net, spec.request(spec.hll_registers > 0));
  m.epoch = epoch;
}

}  // namespace sensornet::cube
