#include "src/cube/cube.hpp"

#include <algorithm>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/tree_broadcast.hpp"
#include "src/sim/message.hpp"

namespace sensornet::cube {

namespace {

constexpr std::uint32_t kRefreshSessionBase = 0x7800;
constexpr std::uint32_t kResidueSessionBase = 0x7C00;
constexpr std::uint32_t kGeometrySession = 0x7BFF;
constexpr std::uint16_t kRequestKind = 1;
constexpr std::uint16_t kResponseKind = 2;
/// The oracle's hash salt: a fresh approx-counting service issues its first
/// (and, per query, only) wave with salt 1, so cube HLL partials use the
/// same constant to reproduce its registers exactly.
constexpr std::uint64_t kHllSalt = 1;

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

void mirror_cube_stats(const CubeStats& s) {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge_set(reg.gauge("cube.refresh_waves"), s.refresh_waves);
  reg.gauge_set(reg.gauge("cube.cell_edges_descended"), s.cell_edges_descended);
  reg.gauge_set(reg.gauge("cube.cell_edges_skipped"), s.cell_edges_skipped);
  reg.gauge_set(reg.gauge("cube.residue_waves"), s.residue_waves);
  reg.gauge_set(reg.gauge("cube.residue_edges_descended"),
                s.residue_edges_descended);
  reg.gauge_set(reg.gauge("cube.residue_edges_pruned"),
                s.residue_edges_pruned);
  reg.gauge_set(reg.gauge("cube.fresh_serves"), s.fresh_serves);
  reg.gauge_set(reg.gauge("cube.stale_serves"), s.stale_serves);
  reg.gauge_set(reg.gauge("cube.geometry_installs"), s.geometry_installs);
}

}  // namespace

// ---- cell state -----------------------------------------------------------

struct Cube::CellState {
  std::size_t ordinal = 0;
  query::RegionSignature region;
  StatsBundle root;
  std::optional<sketch::Hll> root_hll;
  std::uint32_t epoch = DirtyTracker::kInvalidEpoch;  // last refresh
  // Parent-side caches, indexed [node][child_index]; sized lazily at the
  // first refresh so untouched cells cost no memory on wide trees.
  std::vector<std::vector<StatsBundle>> child_partial;
  std::vector<std::vector<std::uint32_t>> child_epoch;
  std::vector<std::vector<std::optional<sketch::Hll>>> child_hll;
};

Cube::CellState& Cube::cell(query::CubeCellRef ref) {
  SENSORNET_EXPECTS(ref.level < config_.levels &&
                    ref.index < (1u << ref.level));
  return *cells_[cell_ordinal(ref)];
}

const Cube::CellState& Cube::cell(query::CubeCellRef ref) const {
  SENSORNET_EXPECTS(ref.level < config_.levels &&
                    ref.index < (1u << ref.level));
  return *cells_[cell_ordinal(ref)];
}

// ---- construction ---------------------------------------------------------

Cube::Cube(sim::Network& net, const net::SpanningTree& tree,
           Value max_value_bound, const DirtyTracker& dirty, CubeConfig config)
    : net_(net),
      tree_(tree),
      max_value_bound_(max_value_bound),
      dirty_(dirty),
      config_(config),
      hll_width_(0),
      next_residue_session_(kResidueSessionBase) {
  SENSORNET_EXPECTS(net.node_count() == tree.node_count());
  SENSORNET_EXPECTS(max_value_bound >= 0);
  SENSORNET_EXPECTS(config_.levels >= 1 && config_.levels <= 16);
  // The finest level must not out-resolve the domain, or cells go empty.
  SENSORNET_EXPECTS((std::uint64_t{1} << (config_.levels - 1)) <=
                    static_cast<std::uint64_t>(max_value_bound) + 1);
  SENSORNET_EXPECTS(config_.max_delta >= 0);
  SENSORNET_EXPECTS(config_.horizon_epochs >= 1);
  if (config_.distinct_registers > 0) {
    hll_width_ = static_cast<std::uint8_t>(sketch::packed_width_for(
        static_cast<std::uint64_t>(net.node_count()) + 1));
    (void)empty_hll();  // validates registers/width geometry once, up front
  }
  const auto domain = static_cast<std::uint64_t>(max_value_bound) + 1;
  for (unsigned level = 0; level < config_.levels; ++level) {
    for (unsigned index = 0; index < (1u << level); ++index) {
      auto c = std::make_unique<CellState>();
      c->ordinal = cells_.size();
      const std::uint64_t lo = index * domain >> level;
      const std::uint64_t hi = ((index + 1ull) * domain >> level) - 1;
      c->region.lo = static_cast<Value>(lo);
      c->region.hi = static_cast<Value>(hi);
      c->region.whole_domain =
          c->region.lo == 0 && c->region.hi == max_value_bound;
      cells_.push_back(std::move(c));
    }
  }
  residue_edges_memo_.assign(cells_.size() + 1, kUnknown);
  stale_edges_memo_.assign(cells_.size(), kUnknown);
  // Construction ships zero bits: the geometry install broadcast is lazy,
  // paid by the first serve (bits-conservation invariants stay intact for
  // services that never enable the cube path).
}

Cube::~Cube() = default;

query::RegionSignature Cube::cell_region(query::CubeCellRef ref) const {
  return cell(ref).region;
}

std::optional<Cube::EdgePartial> Cube::cached_partial(query::CubeCellRef ref,
                                                      NodeId node,
                                                      std::size_t ci) const {
  const CellState& c = cell(ref);
  if (c.child_partial.empty()) return std::nullopt;
  SENSORNET_EXPECTS(node < tree_.node_count() &&
                    ci < tree_.children[node].size());
  return EdgePartial{c.child_partial[node][ci], c.child_epoch[node][ci]};
}

// ---- node-local evaluation ------------------------------------------------

StatsBundle Cube::local_bundle(NodeId node,
                               const query::RegionSignature& region) const {
  StatsBundle b;
  if (region.whole_domain) {
    for (const Value v : net_.items(node)) b.core.observe(v);
    b.inner = b.core;
    b.outer = b.core;
    return b;
  }
  const Value margin =
      static_cast<Value>(config_.horizon_epochs) * config_.max_delta;
  for (const Value v : net_.items(node)) {
    if (v >= region.lo && v <= region.hi) b.core.observe(v);
    if (v >= region.lo + margin && v <= region.hi - margin) b.inner.observe(v);
    if (v >= region.lo - margin && v <= region.hi + margin) b.outer.observe(v);
  }
  return b;
}

sketch::Hll Cube::empty_hll() const {
  return sketch::Hll::make_by_registers(
             config_.distinct_registers,
             sketch::HllOptions{.width = hll_width_, .sparse = true})
      .value();
}

sketch::Hll Cube::local_hll(NodeId node,
                            const query::RegionSignature& region) const {
  sketch::Hll h = empty_hll();
  for (const Value v : net_.items(node)) {
    if (v >= region.lo && v <= region.hi) {
      h.add(static_cast<std::uint64_t>(v), kHllSalt);
    }
  }
  return h;
}

// ---- pruning oracle -------------------------------------------------------

std::size_t Cube::deepest_containing_cell(
    const query::RegionSignature& region) const {
  SENSORNET_EXPECTS(region.lo <= region.hi);
  const auto contains = [&](std::size_t o) {
    const query::RegionSignature& r = cells_[o]->region;
    return r.lo <= region.lo && r.hi >= region.hi;
  };
  if (!contains(0)) return kNoCell;
  // Children partition their parent, so at most one of them contains it.
  std::size_t o = 0;
  while (2 * o + 2 < cells_.size()) {
    if (contains(2 * o + 1)) {
      o = 2 * o + 1;
    } else if (contains(2 * o + 2)) {
      o = 2 * o + 2;
    } else {
      break;
    }
  }
  return o;
}

bool Cube::subtree_provably_empty(NodeId node, std::size_t ci,
                                  std::size_t deepest) const {
  if (deepest == kNoCell) return false;
  for (std::size_t o = deepest;; o = (o - 1) / 2) {
    const CellState& cs = *cells_[o];
    // The partial's outer region contains the residue's outer region (same
    // margin, containing core). edge_fresh certifies the subtree's items are
    // *identical* to when the partial was taken, so an empty outer then is
    // an empty outer now — the subtree contributes nothing, exactly.
    if (!cs.child_partial.empty() &&
        dirty_.edge_fresh(node, ci, cs.child_epoch[node][ci]) &&
        cs.child_partial[node][ci].outer.count == 0) {
      return true;
    }
    if (o == 0) return false;
  }
}

// ---- cell refresh wave ----------------------------------------------------

class Cube::RefreshWave final : public sim::ProtocolHandler {
 public:
  RefreshWave(Cube& cube, CellState& c, std::uint32_t epoch)
      : cube_(cube),
        c_(c),
        epoch_(epoch),
        // Session identifies the cell: stable across epochs, disjoint from
        // the scheduler's 0x7000 group range and the residue range.
        session_(kRefreshSessionBase + static_cast<std::uint32_t>(c.ordinal)),
        want_hll_(cube.config_.distinct_registers > 0),
        pending_(cube.tree_.node_count(), 0),
        accum_(cube.tree_.node_count()),
        accum_hll_(cube.tree_.node_count()) {}

  void execute(sim::Network& net) {
    activate(net, cube_.tree_.root);
    net.run(*this);
    SENSORNET_EXPECTS(pending_[cube_.tree_.root] == 0);
    c_.root = accum_[cube_.tree_.root];
    if (want_hll_) c_.root_hll = std::move(accum_hll_[cube_.tree_.root]);
    c_.epoch = epoch_;
  }

  void on_message(sim::Network& net, NodeId receiver,
                  const sim::Message& msg) override {
    SENSORNET_EXPECTS(msg.session == session_);
    if (msg.kind == kRequestKind) {
      activate(net, receiver);
      return;
    }
    SENSORNET_EXPECTS(msg.kind == kResponseKind);
    BitReader r = msg.reader();
    StatsBundle child = decode_bundle(r, c_.region.whole_domain);
    const std::size_t ci = child_index(cube_.tree_, receiver, msg.from);
    c_.child_partial[receiver][ci] = child;
    c_.child_epoch[receiver][ci] = epoch_;
    accum_[receiver].combine(child);
    if (want_hll_) {
      sketch::Hll h = sketch::Hll::decode(r).value();
      accum_hll_[receiver]->merge(h).value();
      c_.child_hll[receiver][ci] = std::move(h);
    }
    SENSORNET_EXPECTS(pending_[receiver] > 0);
    if (--pending_[receiver] == 0) respond(net, receiver);
  }

 private:
  void activate(sim::Network& net, NodeId node) {
    accum_[node] = cube_.local_bundle(node, c_.region);
    if (want_hll_) accum_hll_[node] = cube_.local_hll(node, c_.region);
    const auto& kids = cube_.tree_.children[node];
    for (std::size_t ci = 0; ci < kids.size(); ++ci) {
      if (cube_.dirty_.edge_fresh(node, ci, c_.child_epoch[node][ci])) {
        accum_[node].combine(c_.child_partial[node][ci]);
        if (want_hll_) {
          accum_hll_[node]->merge(*c_.child_hll[node][ci]).value();
        }
        ++cube_.stats_.cell_edges_skipped;
        continue;
      }
      BitWriter w;
      w.write_bit(true);
      net.send(sim::Message::make(node, kids[ci], session_, kRequestKind,
                                  std::move(w)));
      ++pending_[node];
      ++cube_.stats_.cell_edges_descended;
    }
    if (pending_[node] == 0) respond(net, node);
  }

  void respond(sim::Network& net, NodeId node) {
    if (node == cube_.tree_.root) return;  // root keeps the result
    BitWriter w;
    encode_bundle(w, accum_[node], c_.region.whole_domain);
    if (want_hll_) accum_hll_[node]->encode(w);
    net.send(sim::Message::make(node, cube_.tree_.parent[node], session_,
                                kResponseKind, std::move(w)));
  }

  Cube& cube_;
  CellState& c_;
  std::uint32_t epoch_;
  std::uint32_t session_;
  bool want_hll_;
  std::vector<std::uint32_t> pending_;
  std::vector<StatsBundle> accum_;
  std::vector<std::optional<sketch::Hll>> accum_hll_;
};

void Cube::refresh_cell(CellState& c, std::uint32_t epoch) {
  if (c.epoch == epoch) return;  // idempotent per epoch
  if (c.child_partial.empty()) {
    c.child_partial.resize(tree_.node_count());
    c.child_epoch.resize(tree_.node_count());
    c.child_hll.resize(tree_.node_count());
    for (NodeId u = 0; u < tree_.node_count(); ++u) {
      const std::size_t n = tree_.children[u].size();
      c.child_partial[u].resize(n);
      c.child_epoch[u].assign(n, DirtyTracker::kInvalidEpoch);
      c.child_hll[u].resize(n);
    }
  }
  const SimTime t0 = net_.now();
  RefreshWave wave(*this, c, epoch);
  wave.execute(net_);
  ++stats_.refresh_waves;
  forget_cell_costs(c.ordinal);
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("cube.refresh", "service", t0, net_.now() - t0, 0, "epoch",
                  epoch, "lo", c.region.lo);
  }
  mirror_stats();
}

// ---- residue collection ---------------------------------------------------

class Cube::ResidueWave final : public sim::ProtocolHandler {
 public:
  ResidueWave(Cube& cube, const query::RegionSignature& region,
              std::uint32_t session, bool want_hll)
      : cube_(cube),
        region_(region),
        deepest_(cube.deepest_containing_cell(region)),
        session_(session),
        want_hll_(want_hll),
        pending_(cube.tree_.node_count(), 0),
        accum_(cube.tree_.node_count()),
        accum_hll_(cube.tree_.node_count()) {}

  StatsBundle execute(sim::Network& net) {
    activate(net, cube_.tree_.root);
    net.run(*this);
    SENSORNET_EXPECTS(pending_[cube_.tree_.root] == 0);
    return accum_[cube_.tree_.root];
  }

  std::optional<sketch::Hll> take_root_hll() {
    return std::move(accum_hll_[cube_.tree_.root]);
  }

  void on_message(sim::Network& net, NodeId receiver,
                  const sim::Message& msg) override {
    SENSORNET_EXPECTS(msg.session == session_);
    if (msg.kind == kRequestKind) {
      activate(net, receiver);
      return;
    }
    SENSORNET_EXPECTS(msg.kind == kResponseKind);
    BitReader r = msg.reader();
    const StatsBundle child = decode_bundle(r, region_.whole_domain);
    accum_[receiver].combine(child);
    if (want_hll_) {
      const sketch::Hll h = sketch::Hll::decode(r).value();
      accum_hll_[receiver]->merge(h).value();
    }
    SENSORNET_EXPECTS(pending_[receiver] > 0);
    if (--pending_[receiver] == 0) respond(net, receiver);
  }

 private:
  void activate(sim::Network& net, NodeId node) {
    accum_[node] = cube_.local_bundle(node, region_);
    if (want_hll_) accum_hll_[node] = cube_.local_hll(node, region_);
    const auto& kids = cube_.tree_.children[node];
    for (std::size_t ci = 0; ci < kids.size(); ++ci) {
      if (cube_.subtree_provably_empty(node, ci, deepest_)) {
        ++cube_.stats_.residue_edges_pruned;
        continue;
      }
      // One-shot wave: the request carries the range (residues have no
      // installed group state to lean on).
      BitWriter w;
      encode_uint(w, static_cast<std::uint64_t>(region_.lo));
      encode_uint(w, static_cast<std::uint64_t>(region_.hi - region_.lo));
      w.write_bit(want_hll_);
      net.send(sim::Message::make(node, kids[ci], session_, kRequestKind,
                                  std::move(w)));
      ++pending_[node];
      ++cube_.stats_.residue_edges_descended;
    }
    if (pending_[node] == 0) respond(net, node);
  }

  void respond(sim::Network& net, NodeId node) {
    if (node == cube_.tree_.root) return;
    BitWriter w;
    encode_bundle(w, accum_[node], region_.whole_domain);
    if (want_hll_) accum_hll_[node]->encode(w);
    net.send(sim::Message::make(node, cube_.tree_.parent[node], session_,
                                kResponseKind, std::move(w)));
  }

  Cube& cube_;
  query::RegionSignature region_;
  std::size_t deepest_;  // the pruning oracle's containing-cell chain
  std::uint32_t session_;
  bool want_hll_;
  std::vector<std::uint32_t> pending_;
  std::vector<StatsBundle> accum_;
  std::vector<std::optional<sketch::Hll>> accum_hll_;
};

StatsBundle Cube::collect_range(const query::RegionSignature& region,
                                std::optional<sketch::Hll>* hll) {
  const SimTime t0 = net_.now();
  ResidueWave wave(*this, region, next_residue_session_++, hll != nullptr);
  const StatsBundle b = wave.execute(net_);
  if (hll != nullptr) *hll = wave.take_root_hll();
  ++stats_.residue_waves;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("cube.residue", "service", t0, net_.now() - t0, 0, "lo",
                  region.lo, "hi", region.hi);
  }
  mirror_stats();
  return b;
}

// ---- geometry install -----------------------------------------------------

void Cube::ensure_geometry_installed() {
  if (geometry_installed_) return;
  geometry_installed_ = true;
  // Nodes must learn the grid (levels, margin) and, for distinct partials,
  // the sketch geometry — paid once, on first serve, metered like any bits.
  proto::TreeBroadcast install(
      tree_, kGeometrySession,
      [](sim::Network&, NodeId, BitReader) { /* geometry noted */ });
  BitWriter w;
  encode_uint(w, config_.levels);
  encode_uint(w, static_cast<std::uint64_t>(config_.horizon_epochs) *
                     static_cast<std::uint64_t>(config_.max_delta));
  encode_uint(w, config_.distinct_registers);
  if (config_.distinct_registers > 0) {
    encode_uint(w, hll_width_);
    encode_uint(w, kHllSalt);
  }
  install.execute(net_, std::move(w));
  ++stats_.geometry_installs;
  mirror_stats();
}

// ---- serving --------------------------------------------------------------

ServeResult Cube::serve(const query::CostedPlan& plan, std::uint32_t epoch) {
  ensure_geometry_installed();
  ServeResult out;
  const bool want_hll = plan.strategy == query::Strategy::kApproxDistinct;
  std::optional<sketch::Hll> merged;
  if (want_hll) {
    SENSORNET_EXPECTS(config_.distinct_registers > 0 &&
                      plan.registers == config_.distinct_registers);
    merged = empty_hll();
  }
  for (const query::PlanStep& step : plan.steps) {
    if (step.kind == query::StepKind::kCubeCell) {
      CellState& c = cell(step.cell);
      refresh_cell(c, epoch);
      out.bundle.combine(c.root);
      if (want_hll) merged->merge(*c.root_hll).value();
      ++out.cells_used;
    } else {
      std::optional<sketch::Hll> h;
      const StatsBundle b = collect_range(step.region, want_hll ? &h : nullptr);
      out.bundle.combine(b);
      if (want_hll) merged->merge(*h).value();
      ++out.residues_run;
    }
  }
  if (want_hll) {
    out.has_distinct = true;
    out.distinct_estimate = merged->estimate();
  }
  ++stats_.fresh_serves;
  mirror_stats();
  return out;
}

std::optional<BracketedAnswer> Cube::stale_bracket(
    const query::CostedPlan& plan, query::AggregateKind agg,
    std::uint32_t now_epoch) const {
  if (query::family(agg) != query::AggregateFamily::kStats) return std::nullopt;
  double count_lo = 0.0, count_hi = 0.0, sum_lo = 0.0, sum_hi = 0.0;
  bool defined = false, any_possible = false;
  double min_lo = 0.0, min_hi = 0.0, max_lo = 0.0, max_hi = 0.0;
  StatsBundle core;  // the answer's point value: the frozen composition
  for (const query::PlanStep& step : plan.steps) {
    if (step.kind != query::StepKind::kCubeCell) return std::nullopt;
    const CellState& c = cell(step.cell);
    if (c.epoch == DirtyTracker::kInvalidEpoch || now_epoch < c.epoch) {
      return std::nullopt;
    }
    const std::uint32_t staleness = now_epoch - c.epoch;
    if (!c.region.whole_domain && staleness > config_.horizon_epochs) {
      return std::nullopt;  // margins no longer bracket this cell
    }
    const double d = static_cast<double>(staleness) *
                     static_cast<double>(config_.max_delta);
    const BundleBracket br = bracket_bundle(
        c.root, c.region.whole_domain, d,
        static_cast<double>(c.region.lo), static_cast<double>(c.region.hi));
    count_lo += br.count_lo;
    count_hi += br.count_hi;
    sum_lo += br.sum_lo;
    sum_hi += br.sum_hi;
    if (br.any_possible) {
      // Any component could host the global MIN/MAX: outward rails widen.
      min_lo = any_possible ? std::min(min_lo, br.min_lo) : br.min_lo;
      max_hi = any_possible ? std::max(max_hi, br.max_hi) : br.max_hi;
      any_possible = true;
    }
    if (br.defined) {
      // A surely-present element bounds the global MIN from above (and MAX
      // from below) — take the tightest such witness across components.
      min_hi = defined ? std::min(min_hi, br.min_hi) : br.min_hi;
      max_lo = defined ? std::max(max_lo, br.max_lo) : br.max_lo;
      defined = true;
    }
    core.combine(c.root);
  }
  std::optional<BracketedAnswer> out;
  switch (agg) {
    case query::AggregateKind::kCount:
      out = make_answer(static_cast<double>(core.core.count), count_lo,
                        count_hi);
      break;
    case query::AggregateKind::kSum:
      out = make_answer(static_cast<double>(core.core.sum), sum_lo, sum_hi);
      break;
    case query::AggregateKind::kAvg: {
      if (core.core.count == 0 || count_lo <= 0.0) return std::nullopt;
      const double value = static_cast<double>(core.core.sum) /
                           static_cast<double>(core.core.count);
      out = make_answer(value, sum_lo / count_hi, sum_hi / count_lo);
      break;
    }
    case query::AggregateKind::kMin:
      if (core.core.count == 0 || !defined) return std::nullopt;
      out = make_answer(static_cast<double>(core.core.min), min_lo, min_hi);
      break;
    case query::AggregateKind::kMax:
      if (core.core.count == 0 || !defined) return std::nullopt;
      out = make_answer(static_cast<double>(core.core.max), max_lo, max_hi);
      break;
    default:
      return std::nullopt;
  }
  ++stats_.stale_serves;
  mirror_stats();
  return out;
}

// ---- cost model -----------------------------------------------------------

std::uint64_t Cube::edge_cost_bits(bool whole_domain,
                                   bool carries_region) const {
  // Request: header + 1 descend bit, or header + an encoded range for the
  // one-shot residue waves. Response: header + a typical bundle image (one
  // RangeStats for whole-domain collections, three with margins otherwise)
  // + a sparse-ish HLL image when the cube maintains distinct partials.
  std::uint64_t request = sim::kHeaderBits + (carries_region ? 24 : 1);
  std::uint64_t response =
      sim::kHeaderBits + (whole_domain ? std::uint64_t{48} : std::uint64_t{144});
  if (config_.distinct_registers > 0) {
    response += 2 * config_.distinct_registers;
  }
  return request + response;
}

template <typename Skip>
std::uint64_t Cube::count_descended_edges(Skip skip) const {
  std::uint64_t edges = 0;
  std::vector<NodeId> stack{tree_.root};
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    const auto& kids = tree_.children[node];
    for (std::size_t ci = 0; ci < kids.size(); ++ci) {
      if (skip(node, ci)) continue;
      ++edges;
      stack.push_back(kids[ci]);
    }
  }
  return edges;
}

template <typename Count>
std::uint64_t Cube::memoised(std::vector<std::uint64_t>& memo,
                             std::size_t slot, Count count) const {
  const std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_batches_noted_ != dirty_.batches_noted()) {
    memo_batches_noted_ = dirty_.batches_noted();
    std::fill(residue_edges_memo_.begin(), residue_edges_memo_.end(),
              kUnknown);
    std::fill(stale_edges_memo_.begin(), stale_edges_memo_.end(), kUnknown);
  }
  if (memo[slot] == kUnknown) memo[slot] = count();
  return memo[slot];
}

void Cube::forget_cell_costs(std::size_t o) {
  const std::lock_guard<std::mutex> lock(memo_mu_);
  stale_edges_memo_[o] = kUnknown;
  // The refresh moved only this cell's partials, so only regions whose
  // containing chain passes through it — deepest containing cell o or a
  // descendant — can prune differently now.
  for (std::size_t first = o, width = 1; first < cells_.size();
       first = 2 * first + 1, width *= 2) {
    std::fill_n(residue_edges_memo_.begin() +
                    static_cast<std::ptrdiff_t>(first),
                width, kUnknown);
  }
}

std::uint64_t Cube::cell_refresh_bits(query::CubeCellRef ref) const {
  const CellState& c = cell(ref);
  const std::uint64_t edges =
      memoised(stale_edges_memo_, c.ordinal, [&] {
        return count_descended_edges([&](NodeId node, std::size_t ci) {
          const std::uint32_t have = c.child_partial.empty()
                                         ? DirtyTracker::kInvalidEpoch
                                         : c.child_epoch[node][ci];
          return dirty_.edge_fresh(node, ci, have);
        });
      });
  return edges *
         edge_cost_bits(c.region.whole_domain, /*carries_region=*/false);
}

std::uint64_t Cube::residue_collect_bits(
    const query::RegionSignature& region) const {
  const std::size_t deepest = deepest_containing_cell(region);
  const std::size_t slot = deepest == kNoCell ? cells_.size() : deepest;
  const std::uint64_t edges = memoised(residue_edges_memo_, slot, [&] {
    return count_descended_edges([&](NodeId node, std::size_t ci) {
      return subtree_provably_empty(node, ci, deepest);
    });
  });
  return edges *
         edge_cost_bits(region.whole_domain, /*carries_region=*/true);
}

std::uint64_t Cube::tree_collect_bits(
    const query::RegionSignature& region) const {
  // The no-cube alternative: every edge descends and responds.
  return static_cast<std::uint64_t>(tree_.node_count() - 1) *
         edge_cost_bits(region.whole_domain, /*carries_region=*/true);
}

void Cube::mirror_stats() const { mirror_cube_stats(stats_); }

}  // namespace sensornet::cube
