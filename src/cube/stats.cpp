#include "src/cube/stats.hpp"

#include <algorithm>

#include "src/common/codec.hpp"

namespace sensornet::cube {

void RangeStats::observe(Value v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  count += 1;
  sum += static_cast<std::uint64_t>(v);
}

void RangeStats::combine(const RangeStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

void StatsBundle::combine(const StatsBundle& other) {
  core.combine(other.core);
  inner.combine(other.inner);
  outer.combine(other.outer);
}

void encode_range_stats(BitWriter& w, const RangeStats& rs) {
  encode_uint(w, rs.count);
  if (rs.count == 0) return;
  encode_uint(w, rs.sum);
  encode_uint(w, static_cast<std::uint64_t>(rs.min));
  encode_uint(w, static_cast<std::uint64_t>(rs.max - rs.min));
}

RangeStats decode_range_stats(BitReader& r) {
  RangeStats rs;
  rs.count = decode_uint(r);
  if (rs.count == 0) return rs;
  rs.sum = decode_uint(r);
  rs.min = static_cast<Value>(decode_uint(r));
  rs.max = rs.min + static_cast<Value>(decode_uint(r));
  return rs;
}

BundleBracket bracket_bundle(const StatsBundle& b, bool whole_domain,
                             double drift, double region_lo,
                             double region_hi) {
  BundleBracket out;
  const double d = drift;
  if (whole_domain) {
    // Membership is static: values cannot leave [0, bound], so the count is
    // exact forever and values drift in place.
    const auto count = static_cast<double>(b.core.count);
    out.count_lo = out.count_hi = count;
    out.sum_lo = std::max(0.0, static_cast<double>(b.core.sum) - count * d);
    out.sum_hi = static_cast<double>(b.core.sum) + count * d;
    out.defined = b.core.count > 0;
    out.any_possible = b.core.count > 0;
    if (out.defined) {
      out.min_lo = std::max(region_lo, static_cast<double>(b.core.min) - d);
      out.min_hi = std::min(region_hi, static_cast<double>(b.core.min) + d);
      out.max_lo = std::max(region_lo, static_cast<double>(b.core.max) - d);
      out.max_hi = std::min(region_hi, static_cast<double>(b.core.max) + d);
    }
    return out;
  }
  out.count_lo = static_cast<double>(b.inner.count);
  out.count_hi = static_cast<double>(b.outer.count);
  out.sum_lo = std::max(0.0, static_cast<double>(b.inner.sum) -
                                 static_cast<double>(b.inner.count) * d);
  out.sum_hi = static_cast<double>(b.outer.sum) +
               static_cast<double>(b.outer.count) * d;
  out.defined = b.inner.count > 0;
  out.any_possible = b.outer.count > 0;
  if (out.defined) {
    // Both rails clamped to the region: a range MIN/MAX can never leave its
    // own range, whatever the drift.
    out.min_lo = std::max(region_lo, static_cast<double>(b.outer.min) - d);
    out.min_hi = std::min(region_hi, static_cast<double>(b.inner.min) + d);
    out.max_lo = std::max(region_lo, static_cast<double>(b.inner.max) - d);
    out.max_hi = std::min(region_hi, static_cast<double>(b.outer.max) + d);
  } else if (out.any_possible) {
    // No element surely inside, but some may be: only the outward rails are
    // known. A composed MIN can still use min_lo as its lower rail.
    out.min_lo = std::max(region_lo, static_cast<double>(b.outer.min) - d);
    out.max_hi = std::min(region_hi, static_cast<double>(b.outer.max) + d);
  }
  return out;
}

void compose_bracket(BundleBracket& acc, const BundleBracket& br) {
  acc.count_lo += br.count_lo;
  acc.count_hi += br.count_hi;
  acc.sum_lo += br.sum_lo;
  acc.sum_hi += br.sum_hi;
  if (br.any_possible) {
    acc.min_lo = acc.any_possible ? std::min(acc.min_lo, br.min_lo) : br.min_lo;
    acc.max_hi = acc.any_possible ? std::max(acc.max_hi, br.max_hi) : br.max_hi;
    acc.any_possible = true;
  }
  if (br.defined) {
    acc.min_hi = acc.defined ? std::min(acc.min_hi, br.min_hi) : br.min_hi;
    acc.max_lo = acc.defined ? std::max(acc.max_lo, br.max_lo) : br.max_lo;
    acc.defined = true;
  }
}

BracketedAnswer make_answer(double value, double lo, double hi) {
  BracketedAnswer a;
  a.value = value;
  a.bound = std::max({value - lo, hi - value, 0.0});
  a.exact = a.bound == 0.0;
  return a;
}

std::optional<BracketedAnswer> bracketed_answer(query::AggregateKind agg,
                                                const RangeStats& core,
                                                const BundleBracket& br) {
  switch (agg) {
    case query::AggregateKind::kCount:
      return make_answer(static_cast<double>(core.count), br.count_lo,
                         br.count_hi);
    case query::AggregateKind::kSum:
      return make_answer(static_cast<double>(core.sum), br.sum_lo, br.sum_hi);
    case query::AggregateKind::kAvg:
      if (core.count == 0 || br.count_lo <= 0.0) return std::nullopt;
      return make_answer(
          static_cast<double>(core.sum) / static_cast<double>(core.count),
          br.sum_lo / br.count_hi, br.sum_hi / br.count_lo);
    case query::AggregateKind::kMin:
      if (core.count == 0 || !br.defined) return std::nullopt;
      return make_answer(static_cast<double>(core.min), br.min_lo, br.min_hi);
    case query::AggregateKind::kMax:
      if (core.count == 0 || !br.defined) return std::nullopt;
      return make_answer(static_cast<double>(core.max), br.max_lo, br.max_hi);
    default:
      return std::nullopt;  // not bracketable from a stats bundle
  }
}

}  // namespace sensornet::cube
