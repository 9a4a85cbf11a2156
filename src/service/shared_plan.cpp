#include "src/service/shared_plan.hpp"

#include <algorithm>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/core/count_distinct.hpp"
#include "src/cube/wave.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/item_view.hpp"
#include "src/proto/tree_broadcast.hpp"

namespace sensornet::service {

namespace {

/// Mirrors the scheduler's cumulative stats into registry gauges (last
/// write wins, so the gauge always shows the current cumulative value).
/// Called after every wave — cold path relative to the wave itself.
void mirror_plan_stats(const SharedPlanStats& s) {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge_set(reg.gauge("svc.plan.stats_waves"), s.stats_waves);
  reg.gauge_set(reg.gauge("svc.plan.distinct_waves"), s.distinct_waves);
  reg.gauge_set(reg.gauge("svc.plan.edges_descended"), s.edges_descended);
  reg.gauge_set(reg.gauge("svc.plan.edges_skipped"), s.edges_skipped);
  reg.gauge_set(reg.gauge("svc.plan.mark_messages"), s.mark_messages);
  reg.gauge_set(reg.gauge("svc.plan.groups_created"), s.groups_created);
}

}  // namespace

// ---- group state ----------------------------------------------------------

struct SharedPlanScheduler::Group {
  query::AggregateFamily family = query::AggregateFamily::kStats;
  unsigned registers = 0;  // distinct family: 0 = exact union wave
  std::uint32_t session = 0;
  // The region and the epoch of the last collection. A stats group also
  // keeps its per-edge partials and root bundle here, exactly as a cube cell
  // does, and refreshes through the same incremental wave.
  cube::MaintainedRegion state;
  double distinct_estimate = 0.0;
};

// ---- local evaluation -----------------------------------------------------

/// Distinct-family item filter: exposes only readings inside the group's
/// region. The region was installed at every node by the group-creation
/// broadcast, so this is node-local state, not root-side fiat.
class SharedPlanScheduler::RegionView final : public proto::LocalItemView {
 public:
  explicit RegionView(const query::RegionSignature& region) : region_(region) {}

  ValueSet items(sim::Network& net, NodeId node) const override {
    ValueSet out;
    for (const Value v : net.items(node)) {
      if (v >= region_.lo && v <= region_.hi) out.push_back(v);
    }
    return out;
  }

 private:
  query::RegionSignature region_;
};

// ---- dirty-mark propagation ----------------------------------------------

void SharedPlanScheduler::note_updates(std::span<const NodeId> updated,
                                       std::uint32_t epoch) {
  dirty_.note_updates(updated, epoch);
  stats_.mark_messages = dirty_.mark_messages();
  mirror_plan_stats(stats_);
}

// ---- scheduler ------------------------------------------------------------

SharedPlanScheduler::SharedPlanScheduler(sim::Network& net,
                                         const net::SpanningTree& tree,
                                         Value max_value_bound,
                                         Value max_delta,
                                         std::uint32_t horizon_epochs)
    : net_(net),
      tree_(tree),
      max_value_bound_(max_value_bound),
      max_delta_(max_delta),
      horizon_epochs_(horizon_epochs),
      dirty_(net, tree) {
  SENSORNET_EXPECTS(max_value_bound >= 0 && max_delta >= 0);
}

SharedPlanScheduler::~SharedPlanScheduler() = default;

GroupId SharedPlanScheduler::ensure_stats_group(
    const query::RegionSignature& region) {
  const auto key = std::make_pair(region, 0u);
  if (const auto it = stats_index_.find(key); it != stats_index_.end()) {
    return it->second;
  }
  const auto id = static_cast<GroupId>(groups_.size());
  auto g = std::make_unique<Group>();
  g->family = query::AggregateFamily::kStats;
  g->state.region = region;
  g->session = next_session_++;
  if (!region.whole_domain) {
    // Nodes must learn the region and margin they bracket — paid once per
    // group, amortized over every subscriber and epoch.
    proto::TreeBroadcast install(
        tree_, next_session_++,
        [](sim::Network&, NodeId, BitReader) { /* region noted */ });
    BitWriter w;
    encode_uint(w, static_cast<std::uint64_t>(region.lo));
    encode_uint(w, static_cast<std::uint64_t>(region.hi - region.lo));
    encode_uint(w, static_cast<std::uint64_t>(horizon_epochs_) *
                       static_cast<std::uint64_t>(max_delta_));
    install.execute(net_, std::move(w));
  }
  groups_.push_back(std::move(g));
  stats_index_.emplace(key, id);
  ++stats_.groups_created;
  return id;
}

GroupId SharedPlanScheduler::ensure_distinct_group(
    const query::RegionSignature& region, unsigned registers) {
  const auto key = std::make_pair(region, registers);
  if (const auto it = distinct_index_.find(key); it != distinct_index_.end()) {
    return it->second;
  }
  const auto id = static_cast<GroupId>(groups_.size());
  auto g = std::make_unique<Group>();
  g->family = query::AggregateFamily::kDistinct;
  g->state.region = region;
  g->registers = registers;
  g->session = next_session_++;
  if (!region.whole_domain) {
    proto::TreeBroadcast install(
        tree_, next_session_++,
        [](sim::Network&, NodeId, BitReader) { /* region noted */ });
    BitWriter w;
    encode_uint(w, static_cast<std::uint64_t>(region.lo));
    encode_uint(w, static_cast<std::uint64_t>(region.hi - region.lo));
    install.execute(net_, std::move(w));
  }
  groups_.push_back(std::move(g));
  distinct_index_.emplace(key, id);
  ++stats_.groups_created;
  return id;
}

const StatsBundle& SharedPlanScheduler::collect_stats(GroupId group,
                                                      std::uint32_t epoch) {
  SENSORNET_EXPECTS(group < groups_.size());
  Group& g = *groups_[group];
  SENSORNET_EXPECTS(g.family == query::AggregateFamily::kStats);
  if (g.state.epoch == epoch) return g.state.root.bundle;  // idempotent
  const SimTime t0 = net_.now();
  cube::BundleSpec spec;
  spec.region = g.state.region;
  spec.margin = static_cast<Value>(horizon_epochs_) * max_delta_;
  spec.domain_bound = max_value_bound_;
  cube::refresh(net_, tree_, dirty_, spec, g.session, epoch, g.state,
                stats_.edges_descended, stats_.edges_skipped);
  ++stats_.stats_waves;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("collect.stats", "service", t0, net_.now() - t0, 0,
                  "group", group, "epoch", epoch);
  }
  mirror_plan_stats(stats_);
  return g.state.root.bundle;
}

double SharedPlanScheduler::collect_distinct(GroupId group,
                                             std::uint32_t epoch) {
  SENSORNET_EXPECTS(group < groups_.size());
  Group& g = *groups_[group];
  SENSORNET_EXPECTS(g.family == query::AggregateFamily::kDistinct);
  if (g.state.epoch == epoch) return g.distinct_estimate;
  const RegionView view(g.state.region);
  const proto::LocalItemView& item_view =
      g.state.region.whole_domain ? proto::raw_item_view()
                            : static_cast<const proto::LocalItemView&>(view);
  const SimTime t0 = net_.now();
  if (g.registers == 0) {
    g.distinct_estimate = static_cast<double>(
        core::exact_count_distinct(net_, tree_, item_view).distinct);
  } else {
    g.distinct_estimate =
        core::approx_count_distinct(net_, tree_, g.registers,
                                    proto::EstimatorKind::kHyperLogLog,
                                    item_view)
            .estimate;
  }
  g.state.epoch = epoch;
  ++stats_.distinct_waves;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("collect.distinct", "service", t0, net_.now() - t0, 0,
                  "group", group, "epoch", epoch);
  }
  mirror_plan_stats(stats_);
  return g.distinct_estimate;
}

}  // namespace sensornet::service
