#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "src/net/topology.hpp"
#include "src/query/parser.hpp"

namespace perfbench {

namespace sim = sensornet::sim;
namespace query = sensornet::query;
using sensornet::service::Answer;
using sensornet::service::TelemetrySnapshot;

namespace {

/// Seed of the stream every workload draws its continuous query mix from.
constexpr std::uint64_t kStructureSeed = 0xC0FFEE;

/// Side of the square patches sparse drift is drawn in.
constexpr std::size_t kPatchSide = 6;

Value uniform(Xoshiro256& rng, Value lo, Value hi) {
  return lo + static_cast<Value>(
                  rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// A random range of the value domain with width in [min_w, max_w] that
/// holds at least `min_items` mirror readings (so MIN/MAX/AVG stay defined
/// for the executor, which refuses empty selections).
QuerySpec random_range(Xoshiro256& rng, Value min_w, Value max_w,
                       const std::vector<Value>& mirror,
                       std::size_t min_items) {
  QuerySpec s;
  for (;;) {
    const Value w = uniform(rng, min_w, max_w);
    s.lo = uniform(rng, 0, kBound - w);
    s.hi = s.lo + w;
    const auto n = static_cast<std::size_t>(
        std::count_if(mirror.begin(), mirror.end(),
                      [&](Value v) { return v >= s.lo && v <= s.hi; }));
    if (n >= min_items) return s;
  }
}

// ---------------------------------------------------------------------------
// continuous_shared: the default serving path (shared stats waves,
// incremental descent, the bounded-error result cache).
// ---------------------------------------------------------------------------
class ContinuousShared final : public Workload {
 public:
  const char* name() const override { return "continuous_shared"; }
  unsigned grid_side(bool small) const override { return small ? 16 : 64; }
  // Rounds are cheap here; a long window averages over many drift patches.
  std::uint32_t window_rounds() const override { return 1024; }
  ServiceConfig config() const override { return {}; }
  double update_share() const override { return 0.02; }

  std::vector<QuerySpec> continuous(Xoshiro256& rng) const override {
    // Eight dashboard regions: the whole domain plus seven overlapping
    // wide ranges.
    std::vector<QuerySpec> regions(1);
    for (Value i = 0; i < 7; ++i) {
      QuerySpec r;
      r.lo = 50 * i + uniform(rng, 0, 50);
      r.hi = r.lo + 450 + uniform(rng, 0, 200);
      regions.push_back(r);
    }
    // Eight subscribers per region, EVERY 1-3 epochs. A group is served
    // from the cache only when every due subscriber's tolerance covers the
    // drift bracket, so the tolerant regions hold the aggregates whose
    // brackets are narrow there (a ranged AVG or a MIN near 0 brackets
    // wide); regions 6 and 7 each carry exact subscribers, which force
    // their group to collect fresh whenever they are due.
    using A = AggregateKind;
    static constexpr struct {
      A agg;
      double error;
    } kWhole[8] = {{A::kCount, 0.0},  {A::kSum, 0.05},  {A::kAvg, 0.05},
                   {A::kMax, 0.05},   {A::kCount, 0.0}, {A::kSum, 0.05},
                   {A::kAvg, 0.05},   {A::kMax, 0.05}},
      kTolerant[8] = {{A::kCount, 0.2}, {A::kSum, 0.2},   {A::kMax, 0.1},
                      {A::kCount, 0.2}, {A::kSum, 0.2},   {A::kMax, 0.1},
                      {A::kCount, 0.2}, {A::kSum, 0.2}},
      kExact[8] = {{A::kCount, 0.0}, {A::kMin, 0.1},   {A::kAvg, 0.3},
                   {A::kMax, 0.1},   {A::kSum, 0.0},   {A::kMin, 0.0},
                   {A::kAvg, 0.3},   {A::kCount, 0.2}};
    std::vector<QuerySpec> out;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const auto& mix = r == 0 ? kWhole : r < 6 ? kTolerant : kExact;
      for (std::size_t j = 0; j < 8; ++j) {
        QuerySpec s = regions[r];
        s.agg = mix[j].agg;
        s.error = mix[j].error;
        s.every = static_cast<std::uint32_t>(1 + (r + j) % 3);
        out.push_back(s);
      }
    }
    return out;
  }

  std::vector<QuerySpec> oneshots(std::uint32_t /*round*/,
                                  const std::vector<Value>& /*mirror*/,
                                  const std::vector<QuerySpec>& continuous,
                                  Xoshiro256& rng) const override {
    // Four ad-hoc repeats of dashboard questions per epoch, one of them
    // asked exactly (new regions would grow the group set without bound).
    // Most are served from shared state, so p50 measures that path and p90
    // the exact asks that pay an incremental collection.
    std::vector<QuerySpec> out;
    for (int i = 0; i < 4; ++i) {
      QuerySpec s = continuous[rng.next_below(continuous.size())];
      s.every = 0;
      if (i == 0) s.error = 0.0;
      out.push_back(s);
    }
    return out;
  }

  std::string guard(const TelemetrySnapshot& before,
                    const TelemetrySnapshot& after,
                    std::size_t nodes) const override {
    const auto hits = after.totals.cache_hits - before.totals.cache_hits;
    const double skip = edge_skip_ratio(before, after, nodes);
    if (hits == 0) return "the result cache served no answer";
    if (skip <= 0.5) {
      return "shared stats waves skipped only " + std::to_string(skip) +
             " of the tree's edges (want > 0.5)";
    }
    return {};
  }

};

// ---------------------------------------------------------------------------
// cube_ranges: the planner and the multiresolution cube.
// ---------------------------------------------------------------------------
class CubeRanges final : public Workload {
 public:
  static constexpr unsigned kLevels = 6;

  const char* name() const override { return "cube_ranges"; }
  unsigned grid_side(bool small) const override { return small ? 10 : 24; }
  // Each fresh unaligned one-shot stores a new result-cache region; by 200
  // rounds the cache is at capacity, so memory has stopped growing.
  std::uint32_t window_rounds() const override { return 200; }
  ServiceConfig config() const override {
    ServiceConfig c;
    c.use_cube = true;
    c.cube_levels = kLevels;
    c.cube_distinct_registers = 64;  // ERROR 0.15 plans size to 64
    return c;
  }
  double update_share() const override { return 1.0; }

  std::vector<QuerySpec> continuous(Xoshiro256& rng) const override {
    static constexpr AggregateKind kAggs[6] = {
        AggregateKind::kCount, AggregateKind::kSum,
        AggregateKind::kAvg,   AggregateKind::kMin,
        AggregateKind::kMax,   AggregateKind::kCountDistinct};
    const std::vector<Value> none;
    std::vector<QuerySpec> out;
    for (std::size_t i = 0; i < 48; ++i) {
      // Half dyadic-aligned (so cells are refreshed and reused), half with
      // random endpoints (so residue collections run).
      QuerySpec s = i % 2 == 0 ? aligned_range(rng)
                               : random_range(rng, 60, 400, none, 0);
      s.agg = kAggs[i / 2 % 6];
      s.every = static_cast<std::uint32_t>(1 + i % 3);
      if (s.agg == AggregateKind::kCountDistinct) {
        s.error = 0.15;
      } else if (i % 4 >= 2) {
        s.error = s.agg == AggregateKind::kMin ||
                          s.agg == AggregateKind::kMax
                      ? 0.1
                      : 0.3;
      }
      out.push_back(s);
    }
    return out;
  }

  std::vector<QuerySpec> oneshots(std::uint32_t round,
                                  const std::vector<Value>& mirror,
                                  const std::vector<QuerySpec>& /*continuous*/,
                                  Xoshiro256& rng) const override {
    static constexpr AggregateKind kAggs[5] = {
        AggregateKind::kSum, AggregateKind::kCount, AggregateKind::kMax,
        AggregateKind::kAvg, AggregateKind::kMin};
    // One cell-aligned range (composed from maintained cells) and seven
    // unaligned ones (residue collections), so p50 and p90 both fall well
    // inside the residue path's latency cluster rather than near the edge
    // between the two paths.
    std::vector<QuerySpec> out;
    for (std::uint32_t i = 0; i < 8; ++i) {
      QuerySpec s = i == 0 ? aligned_range(rng)
                           : random_range(rng, 60, 400, mirror, 0);
      s.agg = kAggs[(8 * round + i) % 5];
      out.push_back(s);
    }
    return out;
  }

  std::string guard(const TelemetrySnapshot& before,
                    const TelemetrySnapshot& after,
                    std::size_t /*nodes*/) const override {
    if (after.cube.refresh_waves == before.cube.refresh_waves) {
      return "the cube ran no cell refresh";
    }
    if (after.cube.residue_waves == before.cube.residue_waves) {
      return "the cube ran no residue collection";
    }
    return {};
  }

 private:
  /// A union of one or two adjacent cube cells at levels 2..5, with the
  /// cube's own cell boundaries (see cube.hpp).
  static QuerySpec aligned_range(Xoshiro256& rng) {
    const unsigned level = 2 + static_cast<unsigned>(rng.next_below(4));
    const Value cells = Value{1} << level;
    const Value span = 1 + static_cast<Value>(rng.next_below(2));
    const Value first = static_cast<Value>(
        rng.next_below(static_cast<std::uint64_t>(cells - span + 1)));
    QuerySpec s;
    s.lo = first * (kBound + 1) / cells;
    s.hi = (first + span) * (kBound + 1) / cells - 1;
    return s;
  }
};

// ---------------------------------------------------------------------------
// oneshot_paper: the paper's per-query protocols through query::Executor.
// ---------------------------------------------------------------------------
class OneshotPaper final : public Workload {
 public:
  static constexpr std::uint32_t kPerRound = 3;

  const char* name() const override { return "oneshot_paper"; }
  unsigned grid_side(bool small) const override { return small ? 16 : 64; }
  ServiceConfig config() const override {
    ServiceConfig c;
    c.share_aggregation = false;
    c.use_cache = false;
    c.use_cube = false;
    return c;
  }
  double update_share() const override { return 0.02; }

  std::vector<QuerySpec> continuous(Xoshiro256& /*rng*/) const override {
    // Three continuous subscribers keep run_epoch on the per-query path:
    // Fig. 1's median every epoch, a hashed-LogLog distinct count every
    // second and an exact 0.9-quantile every third. The six epoch phases
    // then fall into four cost classes (1/3, 1/3, 1/6, 1/6 of epochs), so
    // p50 and p90 sit inside a class rather than on the edge of one.
    QuerySpec median;
    median.agg = AggregateKind::kMedian;
    median.every = 1;
    QuerySpec distinct;
    distinct.agg = AggregateKind::kCountDistinct;
    distinct.error = 0.1;
    distinct.every = 2;
    QuerySpec quantile;
    quantile.agg = AggregateKind::kQuantile;
    quantile.phi = 0.9;
    quantile.every = 3;
    return {median, distinct, quantile};
  }

  std::vector<QuerySpec> oneshots(std::uint32_t round,
                                  const std::vector<Value>& mirror,
                                  const std::vector<QuerySpec>& /*continuous*/,
                                  Xoshiro256& rng) const override {
    // A fixed twelve-slot cycle, three slots a round: exact range extremes
    // and counts, exact and hashed-LogLog distinct counts, LogLog
    // alpha-counting, Fig. 1 selection, ODI sums. The slots are weighted so
    // the p50 and the p90 of submit latency fall inside one protocol's
    // cluster (alpha-counting and ODI sums), not on the edge between two.
    using A = AggregateKind;
    static constexpr struct {
      A agg;
      double error;
      bool ranged;
    } kCycle[12] = {
        {A::kMin, 0.0, true},           {A::kMax, 0.0, true},
        {A::kCount, 0.0, true},         {A::kCountDistinct, 0.0, true},
        {A::kCountDistinct, 0.1, true}, {A::kCount, 0.1, false},
        {A::kCount, 0.1, true},         {A::kMedian, 0.0, false},
        {A::kQuantile, 0.0, true},      {A::kMedian, 0.0, false},
        {A::kSum, 0.1, false},          {A::kAvg, 0.1, false}};
    std::vector<QuerySpec> out;
    for (std::uint32_t i = 0; i < kPerRound; ++i) {
      const auto& slot = kCycle[((round - 1) * kPerRound + i) % 12];
      QuerySpec s;
      if (slot.ranged) s = random_range(rng, 150, 700, mirror, 16);
      s.agg = slot.agg;
      s.error = slot.error;
      if (s.agg == A::kQuantile) {
        s.phi = 0.1 + 0.1 * static_cast<double>(rng.next_below(9));
      }
      out.push_back(s);
    }
    return out;
  }

  std::string guard(const TelemetrySnapshot& before,
                    const TelemetrySnapshot& after,
                    std::size_t /*nodes*/) const override {
    const auto runs =
        after.totals.executor_runs - before.totals.executor_runs;
    const auto answers = after.totals.answers - before.totals.answers;
    if (runs != answers) {
      return "only " + std::to_string(runs) + " of " +
             std::to_string(answers) + " answers came from the executor";
    }
    if (after.plan.groups_created != 0) return "a shared group was created";
    return {};
  }
};

}  // namespace

double edge_skip_ratio(const TelemetrySnapshot& before,
                       const TelemetrySnapshot& after, std::size_t nodes) {
  const auto waves = after.plan.stats_waves - before.plan.stats_waves;
  if (waves == 0 || nodes < 2) return 0.0;
  const auto descended =
      after.plan.edges_descended - before.plan.edges_descended;
  return 1.0 - static_cast<double>(descended) /
                   (static_cast<double>(waves) *
                    static_cast<double>(nodes - 1));
}

const Workload* find_workload(const std::string& name) {
  static const ContinuousShared continuous_shared;
  static const CubeRanges cube_ranges;
  static const OneshotPaper oneshot_paper;
  for (const Workload* w : std::initializer_list<const Workload*>{
           &continuous_shared, &cube_ranges, &oneshot_paper}) {
    if (name == w->name()) return w;
  }
  return nullptr;
}

void time_cost_probes(const sensornet::cube::Cube& cube,
                      const query::CostedPlan& plan, Tracer& tracer) {
  for (const query::PlanStep& step : plan.steps) {
    auto span = tracer.span("cube.probe");
    if (step.kind == query::StepKind::kCubeCell) {
      (void)cube.cell_refresh_bits(step.cell);
    } else {
      (void)cube.residue_collect_bits(step.region);
    }
  }
  auto span = tracer.span("cube.probe");
  (void)cube.tree_collect_bits(plan.region);
}

void Outcome::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

Runner::Runner(const Workload& w, std::uint64_t seed, bool small,
               unsigned threads, Outcome& outcome, Tracer& tracer)
    : w_(w),
      seed_(seed),
      small_(small),
      threads_(threads),
      out_(outcome),
      tracer_(tracer) {}

void Runner::setup() {
  live_ = std::make_unique<Live>();
  Live& l = *live_;
  l.rng = Xoshiro256(seed_ * 0x9E3779B97F4A7C15ull + 0x5EED);
  const unsigned side = w_.grid_side(small_);
  l.net = std::make_unique<sim::Network>(sensornet::net::make_grid(side, side),
                                         seed_);
  l.tree = sensornet::net::bfs_tree(l.net->graph(), 0);
  l.mirror.resize(l.net->node_count());
  for (Value& v : l.mirror) v = uniform(l.rng, 0, kBound);
  l.net->set_one_item_per_node(l.mirror);

  ServiceConfig cfg = w_.config();
  cfg.threads = threads_;
  l.svc = std::make_unique<QueryService>(
      query::Deployment{*l.net, l.tree, kBound}, cfg);

  // The continuous mix is part of the workload's definition, drawn from a
  // fixed stream; the seed draws the readings, the drift and the one-shots.
  Xoshiro256 structure(kStructureSeed);
  l.continuous = w_.continuous(structure);
  const std::vector<QuerySpec>& specs = l.continuous;
  std::vector<std::string> texts;
  for (const QuerySpec& s : specs) texts.push_back(s.text());
  const auto admitted = l.svc->submit_batch(texts);
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    ++out_.attempted;
    if (!admitted[i].ok()) {
      out_.fail(texts[i] + ": " + admitted[i].error());
      continue;
    }
    const auto& adm = admitted[i].value();
    fnv_.mix_u64(adm.id);
    l.specs[adm.id] = specs[i];
    l.parsed[adm.id] = query::parse_query(texts[i]);
    if (adm.plan.rfind("cube:", 0) == 0) l.cube_routed.insert(adm.id);
  }
}

void Runner::check_answer(const Answer& a, bool* op_ok) {
  fnv_.mix_answer(a);
  const auto it = live_->specs.find(a.id);
  if (it == live_->specs.end()) {
    out_.fail("answer for unknown query id " + std::to_string(a.id));
    *op_ok = false;
    return;
  }
  std::string why;
  if (!out_.checker.check(it->second, a, live_->mirror, &why)) {
    if (*op_ok) out_.fail(why);
    *op_ok = false;
  }
}

std::vector<SensorUpdate> Runner::make_updates() {
  Live& l = *live_;
  const std::size_t n = l.mirror.size();
  const Value max_delta = w_.config().max_delta;
  std::vector<NodeId> nodes;
  if (w_.update_share() >= 1.0) {
    for (NodeId u = 0; u < n; ++u) nodes.push_back(u);
  } else {
    const auto k = std::max<std::size_t>(
        1, static_cast<std::size_t>(w_.update_share() *
                                    static_cast<double>(n)));
    // Drift is local — square patches of the field, the way a front moves
    // over part of a deployment — so most subtrees stay clean between
    // collections.
    const std::size_t side = w_.grid_side(small_);
    const std::size_t patch = std::min<std::size_t>(kPatchSide, side);
    std::vector<bool> chosen(n, false);
    while (nodes.size() < k) {
      const std::size_t r0 = l.rng.next_below(side - patch + 1);
      const std::size_t c0 = l.rng.next_below(side - patch + 1);
      for (std::size_t r = r0; r < r0 + patch && nodes.size() < k; ++r) {
        for (std::size_t c = c0; c < c0 + patch && nodes.size() < k; ++c) {
          const auto u = static_cast<NodeId>(r * side + c);
          if (chosen[u]) continue;
          chosen[u] = true;
          nodes.push_back(u);
        }
      }
    }
  }
  std::vector<SensorUpdate> batch;
  batch.reserve(nodes.size());
  for (const NodeId u : nodes) {
    const Value old = l.mirror[u];
    const Value step = 1 + static_cast<Value>(l.rng.next_below(
                               static_cast<std::uint64_t>(max_delta)));
    Value v = l.rng.next_bool(0.5) ? old + step : old - step;
    if (v < 0 || v > kBound) v = 2 * old - v;  // reflect off the rails
    l.mirror[u] = v;
    batch.push_back(SensorUpdate{u, v});
  }
  return batch;
}

void Runner::replay_plan(const query::Query& q) {
  const QueryService& svc = *live_->svc;
  std::optional<query::CostedPlan> plan;
  {
    auto span = tracer_.span("query.plan");
    auto r = svc.planner().plan(q);
    if (r.ok()) plan = std::move(r).value();
  }
  ++plan_calls_;
  const sensornet::cube::Cube* cube = svc.cube();
  if (!plan || cube == nullptr || !plan->cube_served()) return;
  time_cost_probes(*cube, *plan, tracer_);
}

void Runner::round(bool batch, bool replay_plans, Timings* timings) {
  Live& l = *live_;
  ++rounds_;
  const std::vector<QuerySpec> shots =
      w_.oneshots(rounds_, l.mirror, l.continuous, l.rng);

  const auto take = [&](const QuerySpec& spec,
                        const sensornet::Result<sensornet::service::Admission>&
                            r) {
    ++out_.attempted;
    if (!r.ok()) {
      out_.fail(spec.text() + ": " + r.error());
      return;
    }
    const auto& adm = r.value();
    if (!adm.answer) {
      out_.fail(spec.text() + ": one-shot admitted without an answer");
      return;
    }
    l.specs[adm.id] = spec;
    bool ok = true;
    check_answer(*adm.answer, &ok);
    l.specs.erase(adm.id);
    if (timings != nullptr) ++timings->answers;
  };

  if (batch) {
    std::vector<std::string> texts;
    for (const QuerySpec& s : shots) texts.push_back(s.text());
    const auto results = l.svc->submit_batch(texts);
    for (std::size_t i = 0; i < shots.size(); ++i) take(shots[i], results[i]);
  } else {
    for (const QuerySpec& s : shots) {
      const std::string text = s.text();
      if (replay_plans) {
        std::optional<query::Query> q;
        {
          auto span = tracer_.span("query.parse");
          q = query::parse_query(text);
        }
        replay_plan(*q);
      }
      std::optional<sensornet::Result<sensornet::service::Admission>> r;
      const std::int64_t t0 = now_ns();
      {
        auto span = tracer_.span("service.submit");
        try {
          r = l.svc->submit(text);
        } catch (const std::exception& e) {
          r = sensornet::Result<sensornet::service::Admission>::failure(
              std::string("submit threw: ") + e.what());
        }
      }
      const std::int64_t t1 = now_ns();
      if (timings != nullptr) {
        timings->oneshots.push_back({t0, static_cast<double>(t1 - t0) / 1e6});
        timings->speed.maybe_sample();
      }
      take(s, *r);
    }
  }

  const std::vector<SensorUpdate> updates = make_updates();
  std::vector<Answer> answers;
  ++out_.attempted;
  bool ok = true;
  const std::int64_t t0 = now_ns();
  {
    auto span = tracer_.span("service.run_epoch");
    try {
      answers = l.svc->run_epoch(updates);
    } catch (const std::exception& e) {
      out_.fail(std::string("run_epoch threw: ") + e.what());
      ok = false;
    }
  }
  const std::int64_t t1 = now_ns();
  if (timings != nullptr) {
    timings->epochs.push_back({t0, static_cast<double>(t1 - t0) / 1e6});
    timings->speed.maybe_sample();
    timings->answers += answers.size();
  }
  {
    auto span = tracer_.span("oracle.check");
    for (const Answer& a : answers) check_answer(a, &ok);
  }
  if (replay_plans) {
    for (const Answer& a : answers) {
      if (l.cube_routed.count(a.id) != 0) replay_plan(l.parsed.at(a.id));
    }
  }
}

}  // namespace perfbench
