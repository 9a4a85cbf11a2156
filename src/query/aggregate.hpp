// The one aggregate-kind vocabulary of the query stack.
//
// Before PR 10 three near-duplicate enums described "what kind of aggregate
// is this": the AST's kind, the shared-aggregation group family, and an
// implicit switch in the service engine's routing. They are unified here:
// every layer speaks AggregateKind, and family() is the single mapping onto
// the three execution families the system distinguishes:
//
//   kStats     COUNT/SUM/AVG/MIN/MAX — answerable from one stats bundle
//              (and from multiresolution cube cells)
//   kSelection MEDIAN/QUANTILE — order statistics, per-query search protocols
//   kDistinct  COUNT_DISTINCT — set-union / HLL waves keyed by geometry
#pragma once

namespace sensornet::query {

enum class AggregateKind {
  kMin,
  kMax,
  kCount,
  kSum,
  kAvg,
  kMedian,
  kQuantile,        // QUANTILE(attr, phi) with phi in (0,1)
  kCountDistinct,
};

enum class AggregateFamily {
  kStats,      // bracketable from a COUNT/SUM/MIN/MAX bundle
  kSelection,  // order statistics; no shared representation
  kDistinct,   // distinct-cardinality; shared per sketch geometry
};

constexpr AggregateFamily family(AggregateKind k) {
  switch (k) {
    case AggregateKind::kMin:
    case AggregateKind::kMax:
    case AggregateKind::kCount:
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      return AggregateFamily::kStats;
    case AggregateKind::kMedian:
    case AggregateKind::kQuantile:
      return AggregateFamily::kSelection;
    case AggregateKind::kCountDistinct:
      return AggregateFamily::kDistinct;
  }
  return AggregateFamily::kSelection;  // unreachable
}

constexpr const char* agg_name(AggregateKind k) {
  switch (k) {
    case AggregateKind::kMin: return "MIN";
    case AggregateKind::kMax: return "MAX";
    case AggregateKind::kCount: return "COUNT";
    case AggregateKind::kSum: return "SUM";
    case AggregateKind::kAvg: return "AVG";
    case AggregateKind::kMedian: return "MEDIAN";
    case AggregateKind::kQuantile: return "QUANTILE";
    case AggregateKind::kCountDistinct: return "COUNT_DISTINCT";
  }
  return "?";
}

}  // namespace sensornet::query
