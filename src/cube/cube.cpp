#include "src/cube/cube.hpp"

#include <algorithm>
#include <utility>

#include "src/common/codec.hpp"
#include "src/common/error.hpp"
#include "src/obs/trace.hpp"
#include "src/proto/tree_broadcast.hpp"
#include "src/sim/message.hpp"

namespace sensornet::cube {

namespace {

constexpr std::uint32_t kRefreshSessionBase = 0x7800;
constexpr std::uint32_t kResidueSessionBase = 0x7C00;
constexpr std::uint32_t kGeometrySession = 0x7BFF;

}  // namespace

// ---- cell state -----------------------------------------------------------

MaintainedRegion& Cube::cell(query::CubeCellRef ref) {
  SENSORNET_EXPECTS(ref.level < config_.levels &&
                    ref.index < (1u << ref.level));
  return cells_[cell_ordinal(ref)];
}

const MaintainedRegion& Cube::cell(query::CubeCellRef ref) const {
  SENSORNET_EXPECTS(ref.level < config_.levels &&
                    ref.index < (1u << ref.level));
  return cells_[cell_ordinal(ref)];
}

// ---- construction ---------------------------------------------------------

Cube::Cube(sim::Network& net, const net::SpanningTree& tree,
           const DriftModel& drift, const DirtyTracker& dirty,
           CubeConfig config)
    : net_(net),
      tree_(tree),
      drift_(drift),
      dirty_(dirty),
      config_(config),
      next_residue_session_(kResidueSessionBase) {
  SENSORNET_EXPECTS(net.node_count() == tree.node_count());
  SENSORNET_EXPECTS(drift_.domain_bound >= 0);
  SENSORNET_EXPECTS(config_.levels >= 1 && config_.levels <= 16);
  // The finest level must not out-resolve the domain, or cells go empty.
  SENSORNET_EXPECTS((std::uint64_t{1} << (config_.levels - 1)) <=
                    static_cast<std::uint64_t>(drift_.domain_bound) + 1);
  SENSORNET_EXPECTS(drift_.max_delta >= 0);
  SENSORNET_EXPECTS(drift_.horizon_epochs >= 1);
  // Validates the sketch geometry up front.
  if (config_.distinct_registers > 0) (void)spec_for({}).empty_hll();
  const auto domain = static_cast<std::uint64_t>(drift_.domain_bound) + 1;
  for (unsigned level = 0; level < config_.levels; ++level) {
    for (unsigned index = 0; index < (1u << level); ++index) {
      MaintainedRegion& c = cells_.emplace_back();
      c.region.lo = static_cast<Value>(index * domain >> level);
      c.region.hi = static_cast<Value>(((index + 1ull) * domain >> level) - 1);
      c.region.whole_domain =
          c.region.lo == 0 && c.region.hi == drift_.domain_bound;
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
                                                      NodeId child) const {
  const MaintainedRegion& c = cell(ref);
  if (c.edges.empty()) return std::nullopt;
  SENSORNET_EXPECTS(child < tree_.node_count() && child != tree_.root);
  return EdgePartial{c.edges.bundle[child], c.edges.epoch[child]};
}

// ---- the bundle wave ------------------------------------------------------

BundleSpec Cube::spec_for(const query::RegionSignature& region) const {
  BundleSpec spec;
  spec.region = region;
  spec.margin = drift_.margin();
  spec.domain_bound = drift_.domain_bound;
  spec.hll_registers = config_.distinct_registers;
  spec.hll_width = hll_width(tree_.node_count());
  return spec;
}

// ---- pruning oracle -------------------------------------------------------

std::size_t Cube::deepest_containing_cell(
    const query::RegionSignature& region) const {
  SENSORNET_EXPECTS(region.lo <= region.hi);
  const auto contains = [&](std::size_t o) {
    const query::RegionSignature& r = cells_[o].region;
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

bool Cube::subtree_provably_empty(NodeId child, std::size_t deepest) const {
  if (deepest == kNoCell) return false;
  for (std::size_t o = deepest;; o = (o - 1) / 2) {
    const EdgeStore& edges = cells_[o].edges;
    // The partial's outer region contains the residue's outer region (same
    // margin, containing core). edge_fresh certifies the subtree's items are
    // *identical* to when the partial was taken, so an empty outer then is
    // an empty outer now — the subtree contributes nothing, exactly.
    if (!edges.empty() && dirty_.edge_fresh(child, edges.epoch[child]) &&
        edges.bundle[child].outer.count == 0) {
      return true;
    }
    if (o == 0) return false;
  }
}

// ---- cell refresh ---------------------------------------------------------

void Cube::refresh_cell(query::CubeCellRef ref, std::uint32_t epoch) {
  MaintainedRegion& c = cell(ref);
  if (c.epoch == epoch) return;  // idempotent per epoch
  const std::size_t ordinal = cell_ordinal(ref);
  const SimTime t0 = net_.now();
  // The session identifies the cell: stable across epochs, disjoint from
  // the region store's 0x7000 group range and the residue range.
  refresh(net_, tree_, dirty_, spec_for(c.region),
          kRefreshSessionBase + static_cast<std::uint32_t>(ordinal), epoch, c,
          stats_.cell_edges_descended, stats_.cell_edges_skipped);
  ++stats_.refresh_waves;
  forget_cell_costs(ordinal);
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("cube.refresh", "service", t0, net_.now() - t0, 0, "epoch",
                  epoch, "lo", c.region.lo);
  }
}

// ---- residue collection ---------------------------------------------------

/// Residue waves descend every edge the pruning oracle cannot prove empty.
struct Cube::ResidueEdges {
  const Cube& cube;
  std::size_t deepest;  // the pruning oracle's containing-cell chain

  proto::EdgeAction edge(NodeId, NodeId child, BundlePartial&) {
    if (cube.subtree_provably_empty(child, deepest)) {
      ++cube.stats_.residue_edges_pruned;
      return proto::EdgeAction::kPrune;
    }
    ++cube.stats_.residue_edges_descended;
    return proto::EdgeAction::kDescend;
  }
  void collected(NodeId, NodeId, BundlePartial&&) {}
};

BundlePartial Cube::collect_range(const query::RegionSignature& region,
                                  bool want_hll) {
  const SimTime t0 = net_.now();
  // One-shot wave: the request carries the range (residues have no
  // installed group state to lean on).
  BundleSpec spec = spec_for(region);
  spec.installed = false;
  proto::TreeWave<BundleSpec, ResidueEdges> wave(
      tree_, next_residue_session_++, proto::raw_item_view(), spec,
      ResidueEdges{*this, deepest_containing_cell(region)});
  BundlePartial p = wave.execute(net_, spec.request(want_hll));
  ++stats_.residue_waves;
  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("cube.residue", "service", t0, net_.now() - t0, 0, "lo",
                  region.lo, "hi", region.hi);
  }
  return p;
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
  encode_uint(w, static_cast<std::uint64_t>(drift_.margin()));
  encode_uint(w, config_.distinct_registers);
  if (config_.distinct_registers > 0) {
    encode_uint(w, hll_width(tree_.node_count()));
    encode_uint(w, kHllSalt);
  }
  install.execute(net_, std::move(w));
  ++stats_.geometry_installs;
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
    merged = spec_for({}).empty_hll();
  }
  const auto add = [&](const BundlePartial& p) {
    out.bundle.combine(p.bundle);
    if (want_hll) merged->merge(*p.hll).value();
  };
  for (const query::PlanStep& step : plan.steps) {
    if (step.kind == query::StepKind::kCubeCell) {
      refresh_cell(step.cell, epoch);
      add(cell(step.cell).root);
      ++out.cells_used;
    } else {
      add(collect_range(step.region, want_hll));
      ++out.residues_run;
    }
  }
  if (want_hll) {
    out.has_distinct = true;
    out.distinct_estimate = merged->estimate();
  }
  ++stats_.fresh_serves;
  return out;
}

std::optional<BracketedAnswer> Cube::stale_bracket(
    const query::CostedPlan& plan, query::AggregateKind agg,
    std::optional<double> epsilon, std::uint32_t now_epoch) const {
  BundleBracket br;
  RangeStats core;  // the answer's point value: the frozen composition
  for (const query::PlanStep& step : plan.steps) {
    if (step.kind != query::StepKind::kCubeCell) return std::nullopt;
    const MaintainedRegion& c = cell(step.cell);
    const std::optional<BundleBracket> cb = drift_bracket(c, now_epoch, drift_);
    if (!cb) return std::nullopt;
    compose_bracket(br, *cb);
    core.combine(c.root.bundle.core);
  }
  const std::optional<BracketedAnswer> out = bracketed_answer(agg, core, br);
  if (!out || error_slack(*out, epsilon) < 0.0) return std::nullopt;
  ++stats_.stale_serves;
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
    for (const NodeId child : tree_.children[node]) {
      if (skip(child)) continue;
      ++edges;
      stack.push_back(child);
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
  const MaintainedRegion& c = cell(ref);
  const std::uint64_t edges =
      memoised(stale_edges_memo_, cell_ordinal(ref), [&] {
        return count_descended_edges([&](NodeId child) {
          return !c.edges.empty() &&
                 dirty_.edge_fresh(child, c.edges.epoch[child]);
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
    return count_descended_edges([&](NodeId child) {
      return subtree_provably_empty(child, deepest);
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

}  // namespace sensornet::cube
