#include "src/proto/aggregations.hpp"

#include <algorithm>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/sketch/hll.hpp"

namespace sensornet::proto {

namespace {
const LocalItemView kRawView;
}  // namespace

const LocalItemView& raw_item_view() { return kRawView; }

// ---- shared wire shapes ----------------------------------------------------

void PredicateSpec::encode_request(BitWriter& w, const Request& req) {
  req.pred.encode(w);
}

PredicateSpec::Request PredicateSpec::decode_request(BitReader& r) {
  return Request{Predicate::decode(r)};
}

void AdditiveSpec::encode_partial(BitWriter& w, const Partial& p,
                                  const Request&) {
  encode_uint(w, p);
}

AdditiveSpec::Partial AdditiveSpec::decode_partial(BitReader& r,
                                                   const Request&) {
  return decode_uint(r);
}

void AdditiveSpec::combine(Partial& acc, const Partial& in, const Request&) {
  acc += in;
}

void ExtremeSpec::encode_partial(BitWriter& w, const Partial& p,
                                 const Request&) {
  w.write_bit(p.has_value());
  if (p.has_value()) {
    SENSORNET_EXPECTS(*p >= 0);
    encode_uint(w, static_cast<std::uint64_t>(*p));
  }
}

ExtremeSpec::Partial ExtremeSpec::decode_partial(BitReader& r,
                                                 const Request&) {
  if (!r.read_bit()) return std::nullopt;
  return static_cast<Value>(decode_uint(r));
}

void encode_sorted_values(BitWriter& w, const ValueSet& xs, bool unique) {
  encode_uint(w, xs.size());
  Value prev = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::uint64_t gap = static_cast<std::uint64_t>(xs[i] - prev);
    if (unique && i > 0) gap -= 1;  // gaps >= 1 shift to >= 0
    encode_uint(w, gap);
    prev = xs[i];
  }
}

ValueSet decode_sorted_values(BitReader& r, bool unique) {
  const std::uint64_t n = decode_uint(r);
  // Every encoded value costs >= 1 bit: a length exceeding the remaining
  // payload is corruption, not data (guards the allocation below).
  if (n > r.remaining()) {
    throw WireFormatError("sorted-values: length exceeds payload");
  }
  ValueSet xs;
  xs.reserve(n);
  Value prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t gap = decode_uint(r);
    if (unique && i > 0) gap += 1;
    const Value v = prev + static_cast<Value>(gap);
    xs.push_back(v);
    prev = v;
  }
  return xs;
}

void merge_sorted_values(ValueSet& acc, const ValueSet& in, bool unique) {
  ValueSet merged;
  merged.reserve(acc.size() + in.size());
  if (unique) {
    std::set_union(acc.begin(), acc.end(), in.begin(), in.end(),
                   std::back_inserter(merged));
  } else {
    std::merge(acc.begin(), acc.end(), in.begin(), in.end(),
               std::back_inserter(merged));
  }
  acc = std::move(merged);
}

// ---- Count / Sum / Min / Max -----------------------------------------------

CountAgg::Partial CountAgg::local(sim::Network& net, NodeId node,
                                  const Request& req,
                                  const LocalItemView& view) {
  Partial c = 0;
  for (const Value x : view.items(net, node)) {
    if (req.pred.matches(x)) ++c;
  }
  return c;
}

SumAgg::Partial SumAgg::local(sim::Network& net, NodeId node,
                              const Request& req, const LocalItemView& view) {
  Partial s = 0;
  for (const Value x : view.items(net, node)) {
    if (req.pred.matches(x)) s += static_cast<std::uint64_t>(x);
  }
  return s;
}

MinAgg::Partial MinAgg::local(sim::Network& net, NodeId node,
                              const Request& req, const LocalItemView& view) {
  Partial best;
  for (const Value x : view.items(net, node)) {
    if (req.pred.matches(x) && (!best || x < *best)) best = x;
  }
  return best;
}

void MinAgg::combine(Partial& acc, const Partial& in, const Request&) {
  if (in && (!acc || *in < *acc)) acc = in;
}

MaxAgg::Partial MaxAgg::local(sim::Network& net, NodeId node,
                              const Request& req, const LocalItemView& view) {
  Partial best;
  for (const Value x : view.items(net, node)) {
    if (req.pred.matches(x) && (!best || x > *best)) best = x;
  }
  return best;
}

void MaxAgg::combine(Partial& acc, const Partial& in, const Request&) {
  if (in && (!acc || *in > *acc)) acc = in;
}

// ---- LogLogAgg -------------------------------------------------------------

namespace {

/// Request geometry must be constructible before any sketch work happens;
/// raising WireFormatError (not PreconditionError) on decode keeps corrupt
/// requests distinguishable from caller bugs.
void validate_loglog_geometry(const LogLogAgg::Request& req, bool from_wire) {
  const auto made = sketch::Hll::make_by_registers(
      req.registers, sketch::HllOptions{.width = req.width, .sparse = true});
  if (made.ok()) return;
  if (from_wire) throw WireFormatError("LogLog request: " + made.error());
  throw PreconditionError(made.error());
}

}  // namespace

void LogLogAgg::encode_request(BitWriter& w, const Request& req) {
  validate_loglog_geometry(req, /*from_wire=*/false);
  req.pred.encode(w);
  encode_uint(w, req.registers);
  encode_uint(w, req.width);
  w.write_bits(static_cast<std::uint64_t>(req.mode), 2);
  w.write_bits(req.salt, 16);
}

LogLogAgg::Request LogLogAgg::decode_request(BitReader& r) {
  Request req;
  req.pred = Predicate::decode(r);
  req.registers = static_cast<std::uint16_t>(decode_uint(r));
  req.width = static_cast<std::uint8_t>(decode_uint(r));
  req.mode = static_cast<Mode>(r.read_bits(2));
  req.salt = static_cast<std::uint16_t>(r.read_bits(16));
  validate_loglog_geometry(req, /*from_wire=*/true);
  return req;
}

void LogLogAgg::encode_partial(BitWriter& w, const Partial& p,
                               const Request&) {
  p.encode(w);
}

LogLogAgg::Partial LogLogAgg::decode_partial(BitReader& r,
                                             const Request& req) {
  auto decoded = sketch::Hll::decode(r);
  if (!decoded.ok()) {
    throw WireFormatError("LogLog partial: " + decoded.error());
  }
  Partial hll = std::move(decoded).value();
  if (hll.m() != req.registers || hll.width() != req.width) {
    throw WireFormatError("LogLog partial: geometry does not match request");
  }
  return hll;
}

LogLogAgg::Partial LogLogAgg::local(sim::Network& net, NodeId node,
                                    const Request& req,
                                    const LocalItemView& view) {
  // Geometry was validated when the request was built/decoded.
  Partial hll =
      sketch::Hll::make_by_registers(
          req.registers, sketch::HllOptions{.width = req.width, .sparse = true})
          .value();
  for (const Value x : view.items(net, node)) {
    if (!req.pred.matches(x)) continue;
    switch (req.mode) {
      case Mode::kRandom:
        hll.add_random(net.rng(node));
        break;
      case Mode::kHashed:
        hll.add(static_cast<std::uint64_t>(x), req.salt);
        break;
      case Mode::kSumOdi:
        hll.add_sum(static_cast<std::uint64_t>(x), net.rng(node));
        break;
    }
  }
  return hll;
}

void LogLogAgg::combine(Partial& acc, const Partial& in, const Request&) {
  const auto merged = acc.merge(in);
  if (!merged.ok()) {
    // Both sides were validated against the same request; a mismatch here is
    // an engine bug, not bad input.
    throw ProtocolError("LogLogAgg::combine: " + merged.error());
  }
}

// ---- Collect / DistinctSet / Sample ----------------------------------------

namespace {

/// The node's matching items, ascending; duplicates dropped when `unique`.
ValueSet sorted_matches(sim::Network& net, NodeId node, const Predicate& pred,
                        const LocalItemView& view, bool unique) {
  ValueSet mine;
  for (const Value x : view.items(net, node)) {
    if (pred.matches(x)) mine.push_back(x);
  }
  std::sort(mine.begin(), mine.end());
  if (unique) mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
  return mine;
}

}  // namespace

CollectAgg::Partial CollectAgg::local(sim::Network& net, NodeId node,
                                      const Request& req,
                                      const LocalItemView& view) {
  return sorted_matches(net, node, req.pred, view, /*unique=*/false);
}

DistinctSetAgg::Partial DistinctSetAgg::local(sim::Network& net, NodeId node,
                                              const Request& req,
                                              const LocalItemView& view) {
  return sorted_matches(net, node, req.pred, view, /*unique=*/true);
}

void SampleAgg::encode_request(BitWriter& w, const Request& req) {
  req.pred.encode(w);
  w.write_bits(req.prob_fp, 21);  // kProbOne needs 21 bits
}

SampleAgg::Request SampleAgg::decode_request(BitReader& r) {
  Request req;
  req.pred = Predicate::decode(r);
  req.prob_fp = static_cast<std::uint32_t>(r.read_bits(21));
  return req;
}

void SampleAgg::encode_partial(BitWriter& w, const Partial& p,
                               const Request&) {
  encode_sorted_values(w, p, /*unique=*/false);
}

SampleAgg::Partial SampleAgg::decode_partial(BitReader& r, const Request&) {
  return decode_sorted_values(r, /*unique=*/false);
}

SampleAgg::Partial SampleAgg::local(sim::Network& net, NodeId node,
                                    const Request& req,
                                    const LocalItemView& view) {
  Partial mine;
  auto& rng = net.rng(node);
  for (const Value x : view.items(net, node)) {
    if (!req.pred.matches(x)) continue;
    if (rng.next_below(kProbOne) < req.prob_fp) mine.push_back(x);
  }
  std::sort(mine.begin(), mine.end());
  return mine;
}

void SampleAgg::combine(Partial& acc, const Partial& in, const Request&) {
  merge_sorted_values(acc, in, /*unique=*/false);
}

}  // namespace sensornet::proto
