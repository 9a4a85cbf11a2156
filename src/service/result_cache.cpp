#include "src/service/result_cache.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"

namespace sensornet::service {

ResultCache::ResultCache(Value max_value_bound, Value max_delta,
                         std::uint32_t horizon_epochs, std::size_t capacity)
    : max_value_bound_(max_value_bound),
      max_delta_(max_delta),
      horizon_epochs_(horizon_epochs),
      capacity_(capacity) {
  SENSORNET_EXPECTS(max_value_bound >= 0);
  SENSORNET_EXPECTS(max_delta >= 0);
  SENSORNET_EXPECTS(capacity > 0);
}

void ResultCache::store(const query::RegionSignature& region,
                        std::uint32_t epoch, const StatsBundle& bundle) {
  entries_[region] = Entry{epoch, bundle};
  ++stores_;
  if (entries_.size() > capacity_) {
    // Evict the stalest entry — it is both the least likely to satisfy a
    // tolerance and the first to expire outright.
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.epoch < victim->second.epoch) victim = it;
    }
    entries_.erase(victim);
  }
}

std::optional<CachedAnswer> ResultCache::bracket(
    const query::RegionSignature& region, query::AggregateKind agg,
    std::uint32_t now_epoch) const {
  const auto it = entries_.find(region);
  if (it == entries_.end()) return std::nullopt;
  const Entry& e = it->second;
  SENSORNET_EXPECTS(now_epoch >= e.epoch);
  const std::uint32_t staleness = now_epoch - e.epoch;
  // Ranged regions are bracketed by the inner/outer margins, which only
  // cover drifts up to the collection horizon.
  if (!region.whole_domain && staleness > horizon_epochs_) return std::nullopt;
  const double d =
      static_cast<double>(staleness) * static_cast<double>(max_delta_);
  // Whole-domain entries clamp to the full value domain; ranged entries to
  // their own region (a range aggregate cannot leave its range).
  const double rail_lo =
      region.whole_domain ? 0.0 : static_cast<double>(region.lo);
  const double rail_hi = region.whole_domain
                             ? static_cast<double>(max_value_bound_)
                             : static_cast<double>(region.hi);
  return cube::bracketed_answer(
      agg, e.bundle.core,
      cube::bracket_bundle(e.bundle, region.whole_domain, d, rail_lo,
                           rail_hi));
}

std::optional<CachedAnswer> ResultCache::check(
    const query::RegionSignature& region, query::AggregateKind agg,
    std::optional<double> epsilon, std::uint32_t now_epoch,
    bool count_hit) const {
  const auto it = entries_.find(region);
  if (it == entries_.end()) {
    ++counters_.absent;
    return std::nullopt;
  }
  SENSORNET_EXPECTS(now_epoch >= it->second.epoch);
  if (!region.whole_domain &&
      now_epoch - it->second.epoch > horizon_epochs_) {
    ++counters_.expired;
    return std::nullopt;
  }
  const auto br = bracket(region, agg, now_epoch);
  if (!br) {
    // Unbracketable aggregate or empty selection: the entry was no help.
    ++counters_.misses;
    return std::nullopt;
  }
  const double tolerance =
      epsilon ? *epsilon * std::max(1.0, std::abs(br->value)) : 0.0;
  if (br->bound > tolerance) {
    ++counters_.misses;
    return std::nullopt;
  }
  if (count_hit) {
    ++counters_.hits;
    if (br->exact) ++counters_.exact_hits;
  }
  return br;
}

std::optional<CachedAnswer> ResultCache::lookup(
    const query::RegionSignature& region, query::AggregateKind agg,
    std::optional<double> epsilon, std::uint32_t now_epoch) const {
  ++counters_.lookups;
  return check(region, agg, epsilon, now_epoch, /*count_hit=*/true);
}

std::optional<CachedAnswer> ResultCache::probe(
    const query::RegionSignature& region, query::AggregateKind agg,
    std::optional<double> epsilon, std::uint32_t now_epoch) const {
  ++counters_.probes;
  return check(region, agg, epsilon, now_epoch, /*count_hit=*/false);
}

}  // namespace sensornet::service
