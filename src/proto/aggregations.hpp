// Aggregation specs for the tree-wave engine.
//
// Each spec defines the request parameters a wave ships downtree, the
// partial-aggregate state that flows uptree, exact wire codecs for both, the
// node-local contribution, and the (associative, commutative) combine step.
// Together with TreeWave<Spec> this is the paper's broadcast-convergecast
// toolbox: MIN / MAX / COUNT / SUM (Fact 2.1), COUNTP (Section 3.1), LogLog
// register aggregation (Fact 2.2), and the heavyweight collect / distinct-set
// partials used by baselines and by exact COUNT_DISTINCT (Section 5).
//
// Each wire shape is written once, in a small base the specs derive:
// PredicateSpec (a predicate-only request), AdditiveSpec (COUNT/SUM's uint64
// partial), ExtremeSpec (MIN/MAX's optional value) and SortedValuesSpec
// (COLLECT/DISTINCT-SET's gap-coded sorted list, whose helpers SAMPLE
// reuses). A spec itself states only its local contribution, plus the
// combine step where siblings differ (MIN vs MAX). LogLog and SAMPLE ship
// extra request fields and keep request codecs of their own.
#pragma once

#include <cstdint>
#include <optional>

#include "src/common/bitio.hpp"
#include "src/common/types.hpp"
#include "src/proto/item_view.hpp"
#include "src/proto/predicate.hpp"
#include "src/sim/network.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::proto {

// ---------------------------------------------------------------------------
// Shared wire shapes (see the file comment).
// ---------------------------------------------------------------------------

/// A spec whose request is a predicate alone: the wire image is the
/// predicate's.
struct PredicateSpec {
  struct Request {
    Predicate pred = Predicate::always_true();
  };

  static void encode_request(BitWriter& w, const Request& req);
  static Request decode_request(BitReader& r);
};

/// Additive partials: a uint64 shipped as one Elias-delta code, combined by
/// addition (COUNTP, SUMP).
struct AdditiveSpec : PredicateSpec {
  using Partial = std::uint64_t;

  static void encode_partial(BitWriter& w, const Partial& p, const Request&);
  static Partial decode_partial(BitReader& r, const Request&);
  static void combine(Partial& acc, const Partial& in, const Request&);
};

/// Extreme-value partials: empty when the subtree holds no matching item
/// (passive subtrees in Fig. 4), else one non-negative value (MIN, MAX).
struct ExtremeSpec : PredicateSpec {
  using Partial = std::optional<Value>;

  static void encode_partial(BitWriter& w, const Partial& p, const Request&);
  static Partial decode_partial(BitReader& r, const Request&);
};

/// Sorted value-list wire format: length, first value, then non-negative
/// gaps — less one each when `unique` (strictly increasing) values.
void encode_sorted_values(BitWriter& w, const ValueSet& xs, bool unique);
ValueSet decode_sorted_values(BitReader& r, bool unique);
/// Folds the sorted list `in` into the sorted list `acc`: a multiset merge,
/// or a set union when `unique`.
void merge_sorted_values(ValueSet& acc, const ValueSet& in, bool unique);

/// Sorted value-list partials (COLLECT, DISTINCT-SET).
template <bool kUnique>
struct SortedValuesSpec : PredicateSpec {
  using Partial = ValueSet;

  static void encode_partial(BitWriter& w, const Partial& p, const Request&) {
    encode_sorted_values(w, p, kUnique);
  }
  static Partial decode_partial(BitReader& r, const Request&) {
    return decode_sorted_values(r, kUnique);
  }
  static void combine(Partial& acc, const Partial& in, const Request&) {
    merge_sorted_values(acc, in, kUnique);
  }
};

// ---------------------------------------------------------------------------
// COUNTP: number of items satisfying a predicate (Fact 2.1 / Section 3.1).
// ---------------------------------------------------------------------------
struct CountAgg : AdditiveSpec {
  static Partial local(sim::Network& net, NodeId node, const Request& req,
                       const LocalItemView& view);
};

// ---------------------------------------------------------------------------
// SUMP: sum of items satisfying a predicate (with COUNT this gives AVERAGE).
// ---------------------------------------------------------------------------
struct SumAgg : AdditiveSpec {
  static Partial local(sim::Network& net, NodeId node, const Request& req,
                       const LocalItemView& view);
};

// ---------------------------------------------------------------------------
// MIN / MAX over items satisfying a predicate.
// ---------------------------------------------------------------------------
struct MinAgg : ExtremeSpec {
  static Partial local(sim::Network& net, NodeId node, const Request& req,
                       const LocalItemView& view);
  static void combine(Partial& acc, const Partial& in, const Request&);
};

struct MaxAgg : ExtremeSpec {
  static Partial local(sim::Network& net, NodeId node, const Request& req,
                       const LocalItemView& view);
  static void combine(Partial& acc, const Partial& in, const Request&);
};

// ---------------------------------------------------------------------------
// LogLog register aggregation (Fact 2.2 / Section 5).
// ---------------------------------------------------------------------------
struct LogLogAgg {
  enum class Mode : std::uint8_t {
    kRandom = 0,  // independent geometric samples -> counts observations
    kHashed = 1,  // item-hash derived -> counts distinct values
    kSumOdi = 2,  // value-weighted observations -> estimates SUM ([2]);
                  // the register state stays merge-idempotent, so it rides
                  // multipath aggregation unharmed
  };
  struct Request {
    Predicate pred = Predicate::always_true();
    std::uint16_t registers = 64;  // m, a power of two >= 2
    std::uint8_t width = 5;        // register width in bits (4, 5, 6, or 8)
    Mode mode = Mode::kRandom;
    std::uint16_t salt = 0;        // distinguishes hashed repetitions
  };
  /// Partials travel as self-describing sketch::Hll wire images: leaves with
  /// few matching items ship a sparse entry list, aggregation-heavy nodes a
  /// bit-packed dense image — the geometry is validated against the request
  /// on decode, so a corrupt or foreign sketch can't poison the wave.
  using Partial = sketch::Hll;

  static void encode_request(BitWriter& w, const Request& req);
  static Request decode_request(BitReader& r);
  static void encode_partial(BitWriter& w, const Partial& p, const Request&);
  static Partial decode_partial(BitReader& r, const Request& req);
  static Partial local(sim::Network& net, NodeId node, const Request& req,
                       const LocalItemView& view);
  static void combine(Partial& acc, const Partial& in, const Request&);
};

// ---------------------------------------------------------------------------
// COLLECT: ship every matching item uptree (sorted multiset). The TAG-style
// "holistic aggregate" baseline — linear individual communication.
// ---------------------------------------------------------------------------
struct CollectAgg : SortedValuesSpec<false> {
  static Partial local(sim::Network& net, NodeId node, const Request& req,
                       const LocalItemView& view);
};

// ---------------------------------------------------------------------------
// DISTINCT-SET: union of distinct matching values (exact COUNT_DISTINCT's
// only sublinear-free option, Section 5). Encoded as ascending gaps.
// ---------------------------------------------------------------------------
struct DistinctSetAgg : SortedValuesSpec<true> {
  static Partial local(sim::Network& net, NodeId node, const Request& req,
                       const LocalItemView& view);
};

// ---------------------------------------------------------------------------
// SAMPLE: Bernoulli(p) subsample of matching items (the [10]-style uniform
// sampling synopsis). p is a 20-bit fixed-point fraction in the request; the
// partial is a sorted value list, coded and merged as COLLECT's.
// ---------------------------------------------------------------------------
struct SampleAgg {
  static constexpr std::uint32_t kProbOne = 1u << 20;
  struct Request {
    Predicate pred = Predicate::always_true();
    std::uint32_t prob_fp = kProbOne;  // inclusion probability * 2^20
  };
  using Partial = ValueSet;  // sorted list of sampled values

  static void encode_request(BitWriter& w, const Request& req);
  static Request decode_request(BitReader& r);
  static void encode_partial(BitWriter& w, const Partial& p, const Request&);
  static Partial decode_partial(BitReader& r, const Request&);
  static Partial local(sim::Network& net, NodeId node, const Request& req,
                       const LocalItemView& view);
  static void combine(Partial& acc, const Partial& in, const Request&);
};

}  // namespace sensornet::proto
