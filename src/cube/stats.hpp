// Range-statistics primitives shared by the multiresolution cube and the
// service's region store.
//
// A RangeStats is COUNT/SUM/MIN/MAX over one value range; a StatsBundle is
// the PASS-style triple of those over a core region and its margin-shrunk
// ("inner") / margin-grown ("outer") companions. Under the drift model — a
// reading moves by at most max_delta per epoch — a bundle frozen at epoch t
// still brackets the current aggregate at epoch t + s with d = s * max_delta:
//
//   COUNT in [inner.count, outer.count]
//   SUM   in [max(0, inner.sum - inner.count*d), outer.sum + outer.count*d]
//   MIN   in [max(lo, outer.min - d), min(hi, inner.min + d)]
//   MAX   in [max(lo, inner.max - d), min(hi, outer.max + d)]
//
// where [lo, hi] is the region itself (a range aggregate can never leave its
// own range — both MIN/MAX rails are clamped). bracket_bundle() is the one
// home of this arithmetic: cube::drift_bracket (wave.hpp) applies it to a
// maintained region's root bundle, which the service's region store
// brackets whole and the cube composes per cell with compose_bracket().
// bracketed_answer() is the one home of the per-aggregate step from a
// bracket to an answer, and error_slack() of the ERROR gate, for both.
#pragma once

#include <cstdint>
#include <optional>

#include "src/common/bitio.hpp"
#include "src/common/types.hpp"
#include "src/query/aggregate.hpp"

namespace sensornet::cube {

/// COUNT/SUM/MIN/MAX over one value range. min/max are meaningful only when
/// count > 0.
struct RangeStats {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  Value min = 0;
  Value max = 0;

  void observe(Value v);
  void combine(const RangeStats& other);

  bool operator==(const RangeStats&) const = default;
};

/// One collection's result: stats over the core region and its margin-shrunk
/// / margin-grown companions (inner is a subset of core is a subset of outer).
struct StatsBundle {
  RangeStats core;
  RangeStats inner;
  RangeStats outer;

  /// Componentwise combine. Exact for disjoint core regions; for outer
  /// regions of adjacent components the overlap only overcounts count/sum,
  /// which keeps every derived upper bound sound.
  void combine(const StatsBundle& other);

  bool operator==(const StatsBundle&) const = default;
};

/// Wire codec shared by every stats-carrying wave (scheduler collections,
/// cube cell refreshes, residue collections): count, then sum/min/(max-min)
/// only when the range is non-empty.
void encode_range_stats(BitWriter& w, const RangeStats& rs);
RangeStats decode_range_stats(BitReader& r);

/// Deterministic drift intervals derived from one bundle at drift d (see
/// file comment). `defined` gates the MIN/MAX rails on a non-empty inner
/// region (an element that surely stayed inside); `any_possible` is false
/// when even the outer region is empty — nothing can be inside the region
/// now, so the component contributes nothing to a composed MIN/MAX.
struct BundleBracket {
  double count_lo = 0.0, count_hi = 0.0;
  double sum_lo = 0.0, sum_hi = 0.0;
  bool defined = false;  // inner non-empty: MIN/MAX rails valid
  bool any_possible = false;  // outer non-empty
  double min_lo = 0.0, min_hi = 0.0;
  double max_lo = 0.0, max_hi = 0.0;
};

/// `region_lo`/`region_hi` are the clamp rails of the bundle's own region
/// (for whole-domain bundles: 0 and the model's value bound). `whole_domain`
/// collapses the margins: membership is static, so COUNT is exact at any
/// drift and MIN/MAX drift around the core values.
BundleBracket bracket_bundle(const StatsBundle& b, bool whole_domain,
                             double drift, double region_lo,
                             double region_hi);

/// Folds one component's bracket into `acc`, the bracket of a union of
/// disjoint components (start from a default BundleBracket): COUNT and SUM
/// rails add; any component that may hold an element widens the outward
/// MIN/MAX rails, and a surely-present element in any component bounds the
/// global MIN from above (and MAX from below). Composing one component
/// yields its bracket unchanged.
void compose_bracket(BundleBracket& acc, const BundleBracket& br);

/// A bracketed answer: |value - exact_now| <= bound, deterministically.
struct BracketedAnswer {
  double value = 0.0;
  double bound = 0.0;
  bool exact = false;  // bound == 0
};

/// Collapses an interval around a point answer (bound = max distance to
/// either rail, floored at zero).
BracketedAnswer make_answer(double value, double lo, double hi);

/// The ERROR gate: how far the answer's bound lies inside the tolerance
/// `epsilon * max(1, |value|)` (0 without ERROR: exact required). Negative
/// when the answer fails the query's ERROR.
double error_slack(const BracketedAnswer& a, std::optional<double> epsilon);

/// The answer to stats aggregate `agg` from its frozen point values `core`
/// and their bracket `br`. Nullopt when the aggregate is not bracketable from
/// a stats bundle, the selection is empty, or an AVG count could reach zero.
std::optional<BracketedAnswer> bracketed_answer(query::AggregateKind agg,
                                                const RangeStats& core,
                                                const BundleBracket& br);

}  // namespace sensornet::cube
