#include "src/service/region_store.hpp"

#include <algorithm>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/core/count_distinct.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/item_view.hpp"
#include "src/proto/tree_broadcast.hpp"

namespace sensornet::service {

namespace {

/// Distinct-group item filter: exposes only readings inside the group's
/// region. A ranged region was installed at every node by the group's
/// install broadcast, so this is node-local state, not root-side fiat.
class RegionView final : public proto::LocalItemView {
 public:
  explicit RegionView(const query::RegionSignature& region) : region_(region) {}

  ValueSet items(sim::Network& net, NodeId node) const override {
    ValueSet out;
    for (const Value v : net.items(node)) {
      if (region_.whole_domain || (v >= region_.lo && v <= region_.hi)) {
        out.push_back(v);
      }
    }
    return out;
  }

 private:
  query::RegionSignature region_;
};

}  // namespace

RegionStore::RegionStore(sim::Network& net, const net::SpanningTree& tree,
                         const cube::DriftModel& drift, std::size_t capacity)
    : net_(net),
      tree_(tree),
      drift_(drift),
      capacity_(capacity),
      dirty_(net, tree) {
  SENSORNET_EXPECTS(drift.domain_bound >= 0 && drift.max_delta >= 0);
  SENSORNET_EXPECTS(capacity > 0);
}

// ---- shared groups --------------------------------------------------------

GroupId RegionStore::add_group(const query::RegionSignature& region,
                               Entry* stats, unsigned registers) {
  Group& g = groups_.emplace_back();
  g.session = next_session_++;
  g.stats = stats;
  g.region = region;
  g.registers = registers;
  if (!region.whole_domain) {
    // Nodes must learn the region (and a stats group's margin) they
    // aggregate over — paid once per group, amortized over every subscriber
    // and epoch.
    proto::TreeBroadcast install(
        tree_, next_session_++,
        [](sim::Network&, NodeId, BitReader) { /* region noted */ });
    BitWriter w;
    encode_uint(w, static_cast<std::uint64_t>(region.lo));
    encode_uint(w, static_cast<std::uint64_t>(region.hi - region.lo));
    if (stats != nullptr) {
      encode_uint(w, static_cast<std::uint64_t>(drift_.margin()));
    }
    install.execute(net_, std::move(w));
  }
  ++stats_.groups_created;
  return static_cast<GroupId>(groups_.size() - 1);
}

GroupId RegionStore::pin_stats(const query::RegionSignature& region) {
  const auto [it, inserted] = regions_.try_emplace(region);
  Entry& e = it->second;
  if (e.group) return *e.group;
  // A root-only entry for the region gives way to the maintained one.
  if (!inserted) --root_only_;
  e.state = cube::MaintainedRegion{};
  e.state.region = region;
  e.group = add_group(region, &e, 0);
  return *e.group;
}

GroupId RegionStore::pin_distinct(const query::RegionSignature& region,
                                  unsigned registers) {
  const auto key = std::make_pair(region, registers);
  if (const auto it = distinct_index_.find(key); it != distinct_index_.end()) {
    return it->second;
  }
  const GroupId id = add_group(region, nullptr, registers);
  distinct_index_.emplace(key, id);
  return id;
}

void RegionStore::note_updates(std::span<const NodeId> updated,
                               std::uint32_t epoch) {
  dirty_.note_updates(updated, epoch);
  stats_.mark_messages = dirty_.mark_messages();
}

void RegionStore::trace_wave(const char* name, GroupId group,
                              std::uint32_t epoch, SimTime t0) const {
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete(name, "service", t0, net_.now() - t0, 0, "group", group,
                  "epoch", epoch);
  }
}

const StatsBundle& RegionStore::collect_stats(GroupId group,
                                              std::uint32_t epoch) {
  SENSORNET_EXPECTS(group < groups_.size() && groups_[group].stats);
  const Group& g = groups_[group];
  cube::MaintainedRegion& m = g.stats->state;
  if (m.epoch == epoch) return m.root.bundle;  // idempotent
  const SimTime t0 = net_.now();
  cube::BundleSpec spec;
  spec.region = m.region;
  spec.margin = drift_.margin();
  spec.domain_bound = drift_.domain_bound;
  cube::refresh(net_, tree_, dirty_, spec, g.session, epoch, m,
                stats_.edges_descended, stats_.edges_skipped);
  ++stats_.stats_waves;
  trace_wave("collect.stats", group, epoch, t0);
  return m.root.bundle;
}

double RegionStore::collect_distinct(GroupId group, std::uint32_t epoch) {
  SENSORNET_EXPECTS(group < groups_.size() && !groups_[group].stats);
  Group& g = groups_[group];
  if (g.epoch == epoch) return g.estimate;
  const RegionView view(g.region);
  const SimTime t0 = net_.now();
  if (g.registers == 0) {
    g.estimate = static_cast<double>(
        core::exact_count_distinct(net_, tree_, view).distinct);
  } else {
    g.estimate = core::approx_count_distinct(
                     net_, tree_, g.registers,
                     proto::EstimatorKind::kHyperLogLog, view)
                     .estimate;
  }
  g.epoch = epoch;
  ++stats_.distinct_waves;
  trace_wave("collect.distinct", group, epoch, t0);
  return g.estimate;
}

// ---- root-only entries ----------------------------------------------------

void RegionStore::store(const query::RegionSignature& region,
                        std::uint32_t epoch, const StatsBundle& bundle) {
  const auto [it, inserted] = regions_.try_emplace(region);
  cube::MaintainedRegion& m = it->second.state;
  if (it->second.group || (!inserted && m.epoch == epoch)) return;
  m.region = region;
  m.root.bundle = bundle;
  m.epoch = epoch;
  if (!inserted || ++root_only_ <= capacity_) return;
  // Evict the stalest root-only entry — it is both the least likely to
  // satisfy a tolerance and the first to expire outright. Pinned entries
  // sort last.
  const auto rank = [](const auto& kv) {
    return std::make_pair(kv.second.group.has_value(), kv.second.state.epoch);
  };
  regions_.erase(std::min_element(
      regions_.begin(), regions_.end(),
      [&](const auto& a, const auto& b) { return rank(a) < rank(b); }));
  --root_only_;
}

// ---- lookups --------------------------------------------------------------

std::optional<cube::BracketedAnswer> RegionStore::check(
    const query::RegionSignature& region, query::AggregateKind agg,
    std::optional<double> epsilon, std::uint32_t now_epoch,
    bool count_hit) const {
  const auto it = regions_.find(region);
  if (it == regions_.end() ||
      it->second.state.epoch == cube::DirtyTracker::kInvalidEpoch) {
    ++counters_.absent;
    return std::nullopt;
  }
  const cube::MaintainedRegion& m = it->second.state;
  const auto br = cube::drift_bracket(m, now_epoch, drift_);
  if (!br) {
    ++counters_.expired;
    return std::nullopt;
  }
  // An unbracketable aggregate or an empty selection is no help either.
  const auto answer = cube::bracketed_answer(agg, m.root.bundle.core, *br);
  if (!answer || cube::error_slack(*answer, epsilon) < 0.0) {
    ++counters_.misses;
    return std::nullopt;
  }
  if (count_hit) {
    ++counters_.hits;
    if (answer->exact) ++counters_.exact_hits;
  }
  return answer;
}

std::optional<cube::BracketedAnswer> RegionStore::lookup(
    const query::RegionSignature& region, query::AggregateKind agg,
    std::optional<double> epsilon, std::uint32_t now_epoch) const {
  ++counters_.lookups;
  return check(region, agg, epsilon, now_epoch, /*count_hit=*/true);
}

std::optional<cube::BracketedAnswer> RegionStore::probe(
    const query::RegionSignature& region, query::AggregateKind agg,
    std::optional<double> epsilon, std::uint32_t now_epoch) const {
  ++counters_.probes;
  return check(region, agg, epsilon, now_epoch, /*count_hit=*/false);
}

}  // namespace sensornet::service
