#include "src/service/region_store.hpp"

#include <algorithm>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/tree_broadcast.hpp"

namespace sensornet::service {

RegionStore::RegionStore(sim::Network& net, const net::SpanningTree& tree,
                         const cube::DriftModel& drift)
    : net_(net), tree_(tree), drift_(drift), dirty_(net, tree) {
  SENSORNET_EXPECTS(drift.domain_bound >= 0 && drift.max_delta >= 0);
}

// ---- shared groups --------------------------------------------------------

GroupId RegionStore::pin(Entry& e, const cube::BundleSpec& spec) {
  e.state = cube::MaintainedRegion{};
  e.state.region = spec.region;
  e.group = static_cast<GroupId>(groups_.size());
  groups_.push_back(Group{next_session_++, &e.state, spec});
  ++stats_.groups_created;
  // Nodes must learn what they aggregate: the range, and a stats group's
  // margin or a distinct group's parts. Paid once per group, amortized over
  // every subscriber and epoch; a whole-domain stats group needs nothing.
  if (spec.stats && spec.region.whole_domain) return *e.group;
  proto::TreeBroadcast install(
      tree_, next_session_++,
      [](sim::Network&, NodeId, BitReader) { /* group noted */ });
  BitWriter w;
  if (!spec.region.whole_domain) {
    encode_uint(w, static_cast<std::uint64_t>(spec.region.lo));
    encode_uint(w, static_cast<std::uint64_t>(spec.region.hi - spec.region.lo));
  }
  if (spec.stats) {
    encode_uint(w, static_cast<std::uint64_t>(spec.margin));
  } else {
    encode_uint(w, spec.hll_registers);
    if (spec.hll_registers > 0) {
      encode_uint(w, spec.hll_width);
      encode_uint(w, cube::kHllSalt);
    }
  }
  install.execute(net_, std::move(w));
  return *e.group;
}

GroupId RegionStore::pin_stats(const query::RegionSignature& region) {
  const auto [it, inserted] = regions_.try_emplace(region);
  Entry& e = it->second;
  if (e.group) return *e.group;
  // A root-only entry for the region gives way to the maintained one.
  if (!inserted) --root_only_;
  cube::BundleSpec spec;
  spec.region = region;
  spec.margin = drift_.margin();
  spec.domain_bound = drift_.domain_bound;
  return pin(e, spec);
}

GroupId RegionStore::pin_distinct(const query::RegionSignature& region,
                                  unsigned registers) {
  Entry& e = distinct_[{region, registers}];
  if (e.group) return *e.group;
  cube::BundleSpec spec;
  spec.region = region;
  spec.domain_bound = drift_.domain_bound;
  spec.stats = false;
  spec.hll_registers = registers;
  spec.hll_width = cube::hll_width(tree_.node_count());
  spec.values = registers == 0;
  return pin(e, spec);
}

void RegionStore::note_updates(std::span<const NodeId> updated,
                               std::uint32_t epoch) {
  dirty_.note_updates(updated, epoch);
  stats_.mark_messages = dirty_.mark_messages();
}

const cube::BundlePartial& RegionStore::collect(GroupId group,
                                                std::uint32_t epoch) {
  SENSORNET_EXPECTS(group < groups_.size());
  const Group& g = groups_[group];
  cube::MaintainedRegion& m = *g.state;
  if (m.epoch == epoch) return m.root;  // idempotent
  const SimTime t0 = net_.now();
  // The edge counters keep their stats-wave meaning: telemetry divides them
  // by stats_waves.
  std::uint64_t distinct_descended = 0;
  std::uint64_t distinct_skipped = 0;
  cube::refresh(net_, tree_, dirty_, g.spec, g.session, epoch, m,
                g.spec.stats ? stats_.edges_descended : distinct_descended,
                g.spec.stats ? stats_.edges_skipped : distinct_skipped);
  ++(g.spec.stats ? stats_.stats_waves : stats_.distinct_waves);
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete(g.spec.stats ? "collect.stats" : "collect.distinct",
                  "service", t0, net_.now() - t0, 0, "group", group, "epoch",
                  epoch);
  }
  return m.root;
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
  if (!inserted || ++root_only_ <= kRootOnlyCapacity) return;
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
