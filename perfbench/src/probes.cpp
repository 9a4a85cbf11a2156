#include "probes.hpp"

#include <algorithm>
#include <exception>
#include <set>
#include <utility>

#include "src/common/bitio.hpp"
#include "src/cube/stats.hpp"
#include "src/net/topology.hpp"
#include "src/proto/aggregations.hpp"
#include "src/proto/tree_wave.hpp"
#include "src/query/executor.hpp"
#include "src/query/parser.hpp"
#include "src/query/planner.hpp"
#include "src/sketch/hll.hpp"

namespace perfbench {

namespace cube = sensornet::cube;
namespace query = sensornet::query;
namespace sim = sensornet::sim;
namespace sketch = sensornet::sketch;

namespace {

/// A second deployment of the same grid holding the same readings.
struct Twin {
  sim::Network net;
  sensornet::net::SpanningTree tree;
  Twin(unsigned side, const std::vector<Value>& readings, std::uint64_t seed)
      : net(sensornet::net::make_grid(side, side), seed),
        tree(sensornet::net::bfs_tree(net.graph(), 0)) {
    net.set_one_item_per_node(readings);
  }
  query::Deployment deployment() { return {net, tree, kBound}; }
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

unsigned side_of(const Live& l) {
  unsigned side = 1;
  while (side * side < l.mirror.size()) ++side;
  return side;
}

/// The workload's own queries: its continuous specs plus two rounds of
/// one-shots drawn from a probe-private stream.
std::vector<QuerySpec> workload_queries(Runner& runner, std::uint64_t seed) {
  const Live& l = runner.live();
  std::vector<QuerySpec> out = l.continuous;
  Xoshiro256 rng(seed ^ 0x9B0BEull);
  for (std::uint32_t round = 1; round <= 2; ++round) {
    for (QuerySpec s :
         runner.workload().oneshots(round, l.mirror, l.continuous, rng)) {
      out.push_back(s);
    }
  }
  for (QuerySpec& s : out) s.every = 0;
  return out;
}

// ---- simulator dispatch -----------------------------------------------------
void probe_sim(const Live& l, std::uint64_t seed, Tracer& tracer,
               Outcome& out, std::vector<Metric>& metrics) {
  Twin twin(side_of(l), l.mirror, seed);
  sensornet::proto::TreeWave<sensornet::proto::CountAgg> wave(twin.tree,
                                                              0x5100);
  const std::uint64_t before = twin.net.summary(true).total_messages;
  for (int i = 0; i < 32; ++i) {
    auto span = tracer.span("sim.count_wave");
    const std::uint64_t count = wave.execute(twin.net, {});
    if (count != l.mirror.size()) out.fail("sim probe: COUNT wave miscounted");
  }
  const std::uint64_t deliveries =
      twin.net.summary(true).total_messages - before;
  metrics.push_back({"sim.ns_per_delivery",
                     sum(tracer.self_ns("sim.count_wave")) /
                         static_cast<double>(std::max<std::uint64_t>(
                             deliveries, 1)),
                     "ns"});
}

// ---- stats codec ------------------------------------------------------------
void probe_codec(const Live& l, const std::vector<QuerySpec>& queries,
                 Tracer& tracer, Outcome& out, std::vector<Metric>& metrics) {
  // What stats waves ship: region-level partials plus the one-reading and
  // empty partials leaves send.
  std::vector<cube::RangeStats> items;
  for (const QuerySpec& q : queries) {
    cube::RangeStats rs;
    for (const Value v : l.mirror) {
      if (v >= q.lo && v <= q.hi) rs.observe(v);
    }
    items.push_back(rs);
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(256, l.mirror.size());
       ++i) {
    cube::RangeStats rs;
    rs.observe(l.mirror[i]);
    items.push_back(rs);
    items.push_back(cube::RangeStats{});
  }
  constexpr int kReps = 200;
  sensornet::BitWriter image;
  for (int rep = 0; rep < kReps; ++rep) {
    sensornet::BitWriter w;
    auto span = tracer.span("codec.range_stats_encode");
    for (const cube::RangeStats& rs : items) cube::encode_range_stats(w, rs);
    if (rep == 0) image = std::move(w);
  }
  const std::size_t bits = image.bit_count();
  const std::vector<std::uint8_t> bytes = image.take_bytes();
  for (int rep = 0; rep < kReps; ++rep) {
    sensornet::BitReader r(bytes.data(), bits);
    auto span = tracer.span("codec.range_stats_decode");
    for (const cube::RangeStats& rs : items) {
      if (!(cube::decode_range_stats(r) == rs)) {
        out.fail("codec probe: range stats did not round-trip");
        return;
      }
    }
  }
  const auto calls = static_cast<double>(kReps * items.size());
  metrics.push_back({"codec.range_stats_encode_ns",
                     sum(tracer.self_ns("codec.range_stats_encode")) / calls,
                     "ns"});
  metrics.push_back({"codec.range_stats_decode_ns",
                     sum(tracer.self_ns("codec.range_stats_decode")) / calls,
                     "ns"});
}

// ---- cube cost model (workloads that run without the cube) ------------------
void probe_twin_cube(const Live& l, const std::vector<QuerySpec>& queries,
                     std::uint64_t seed, Tracer& tracer) {
  Twin twin(side_of(l), l.mirror, seed);
  ServiceConfig cfg;
  cfg.use_cube = true;
  cfg.cube_levels = 6;
  cfg.cube_distinct_registers = 64;
  QueryService svc(twin.deployment(), cfg);
  std::set<std::pair<Value, Value>> seen;
  for (const QuerySpec& s : queries) {
    if (query::family(s.agg) != query::AggregateFamily::kStats ||
        !seen.insert({s.lo, s.hi}).second) {
      continue;
    }
    auto planned = svc.planner().plan(query::parse_query(s.text()));
    if (!planned.ok()) continue;
    time_cost_probes(*svc.cube(), planned.value(), tracer);
  }
}

// ---- executor, one strategy at a time ---------------------------------------
struct StrategyProbe {
  query::Strategy strategy;
  const char* metric;
  const char* span;
  QuerySpec fallback;  // used when the workload has no query of this kind
};

QuerySpec spec_of(AggregateKind agg, double error) {
  QuerySpec s;
  s.agg = agg;
  s.error = error;
  return s;
}

void probe_executor(const Live& l, const std::vector<QuerySpec>& queries,
                    std::uint64_t seed, Tracer& tracer, Outcome& out,
                    std::vector<Metric>& metrics) {
  const StrategyProbe probes[] = {
      {query::Strategy::kPrimitiveWave, "query.execute_ms.primitive_wave",
       "query.execute.primitive_wave", spec_of(AggregateKind::kSum, 0.0)},
      {query::Strategy::kApproxCount, "query.execute_ms.approx_count",
       "query.execute.approx_count", spec_of(AggregateKind::kCount, 0.1)},
      {query::Strategy::kApproxSum, "query.execute_ms.approx_sum",
       "query.execute.approx_sum", spec_of(AggregateKind::kSum, 0.1)},
      {query::Strategy::kExactSelection, "query.execute_ms.exact_selection",
       "query.execute.exact_selection", spec_of(AggregateKind::kMedian, 0.0)},
      {query::Strategy::kExactDistinct, "query.execute_ms.exact_distinct",
       "query.execute.exact_distinct",
       spec_of(AggregateKind::kCountDistinct, 0.0)},
      {query::Strategy::kApproxDistinct, "query.execute_ms.approx_distinct",
       "query.execute.approx_distinct",
       spec_of(AggregateKind::kCountDistinct, 0.1)},
  };
  Twin twin(side_of(l), l.mirror, seed);
  query::Executor executor(twin.deployment());
  const query::Planner planner(kBound);
  for (const StrategyProbe& p : probes) {
    QuerySpec chosen = p.fallback;
    for (const QuerySpec& s : queries) {
      auto planned = planner.plan(query::parse_query(s.text()));
      if (planned.ok() && planned.value().strategy == p.strategy &&
          oracle(l.mirror, s).defined) {
        chosen = s;
        break;
      }
    }
    const query::Query q = query::parse_query(chosen.text());
    const query::CostedPlan plan = planner.plan(q).value();
    const Truth truth = oracle(l.mirror, chosen);
    for (int rep = 0; rep < 3; ++rep) {
      try {
        auto span = tracer.span(p.span);
        const query::QueryResult r = executor.run(q, plan);
        if (!r.is_exact) {
          out.checker.add_estimate(r.value, truth.value);
        } else if (r.value != truth.value) {
          out.fail("executor probe: " + chosen.text() + " answered " +
                   std::to_string(r.value) + ", oracle " +
                   std::to_string(truth.value));
        }
      } catch (const std::exception& e) {
        out.fail("executor probe: " + chosen.text() + " threw: " + e.what());
      }
    }
    metrics.push_back({p.metric, median(tracer.self_ns(p.span)) / 1e6, "ms"});
  }
}

// ---- sketch codec and ODI sums ----------------------------------------------
void probe_sketch(const Live& l, std::uint64_t seed, Tracer& tracer,
                  Outcome& out, std::vector<Metric>& metrics) {
  // The geometry of the cube's and the hashed-LogLog plans' partials:
  // 64 registers wide enough for node_count + 1 ranks, salt 1.
  sketch::HllOptions opts;
  opts.width = sketch::packed_width_for(l.mirror.size() + 1);
  auto a = sketch::Hll::make_by_registers(64, opts).value();
  auto b = sketch::Hll::make_by_registers(64, opts).value();
  for (std::size_t i = 0; i < l.mirror.size(); ++i) {
    (i % 2 == 0 ? a : b)
        .add(static_cast<std::uint64_t>(l.mirror[i]), /*salt=*/1);
  }
  constexpr int kReps = 20000;
  sensornet::BitWriter image;
  a.encode(image);
  {
    auto span = tracer.span("sketch.hll_encode");
    for (int i = 0; i < kReps; ++i) {
      sensornet::BitWriter w;
      a.encode(w);
      if (w.bit_count() != image.bit_count()) out.fail("hll encode drifted");
    }
  }
  const std::size_t bits = image.bit_count();
  const std::vector<std::uint8_t> bytes = image.take_bytes();
  {
    auto span = tracer.span("sketch.hll_decode");
    for (int i = 0; i < kReps; ++i) {
      sensornet::BitReader r(bytes.data(), bits);
      auto d = sketch::Hll::decode(r);
      if (!d.ok() || (i == 0 && !(d.value() == a))) {
        out.fail("hll probe: sketch did not round-trip");
        break;
      }
    }
  }
  auto acc = a.clone();
  {
    auto span = tracer.span("sketch.hll_merge");
    for (int i = 0; i < kReps; ++i) {
      if (!acc.merge(i % 2 == 0 ? b : a).ok()) out.fail("hll merge refused");
    }
  }
  metrics.push_back({"sketch.hll_encode_ns",
                     sum(tracer.self_ns("sketch.hll_encode")) / kReps, "ns"});
  metrics.push_back({"sketch.hll_decode_ns",
                     sum(tracer.self_ns("sketch.hll_decode")) / kReps, "ns"});
  metrics.push_back({"sketch.hll_merge_ns",
                     sum(tracer.self_ns("sketch.hll_merge")) / kReps, "ns"});

  // ODI sum at the executor's SUM ... ERROR 0.1 geometry, one reading per
  // call.
  sketch::HllOptions odi;
  odi.width = sketch::packed_width_for(l.mirror.size() *
                                       static_cast<std::uint64_t>(kBound | 1));
  auto s = sketch::Hll::make_by_registers(query::registers_for_error(0.1), odi)
               .value();
  Xoshiro256 rng(seed);
  {
    auto span = tracer.span("sketch.odi_add_sum");
    for (int pass = 0; pass < 4; ++pass) {
      for (const Value v : l.mirror) {
        s.add_sum(static_cast<std::uint64_t>(v), rng);
      }
    }
  }
  metrics.push_back({"sketch.odi_add_sum_ns",
                     sum(tracer.self_ns("sketch.odi_add_sum")) /
                         static_cast<double>(4 * l.mirror.size()),
                     "ns"});
}

// ---- approximate vs exact selection on 256 nodes ----------------------------
void probe_selection(const Live& l, std::uint64_t seed, Tracer& tracer,
                     Outcome& out, std::vector<Metric>& metrics) {
  const std::vector<Value> readings(l.mirror.begin(), l.mirror.begin() + 256);
  Twin twin(16, readings, seed);
  query::Executor executor(twin.deployment());
  const query::Planner planner(kBound);
  const struct {
    QuerySpec spec;
    const char* span;
    const char* bits_metric;
    const char* ms_metric;
  } runs[] = {
      {spec_of(AggregateKind::kMedian, 0.1), "query.apx_selection",
       "query.apx_selection_bits", "query.apx_selection_ms"},
      {spec_of(AggregateKind::kMedian, 0.0), "query.exact_selection",
       "query.exact_selection_bits", "query.exact_selection_ms"},
  };
  for (const auto& run : runs) {
    const query::Query q = query::parse_query(run.spec.text());
    const query::CostedPlan plan = planner.plan(q).value();
    const std::uint64_t before = twin.net.summary(true).total_bits;
    try {
      auto span = tracer.span(run.span);
      const query::QueryResult r = executor.run(q, plan);
      if (r.is_exact && r.value != oracle(readings, run.spec).value) {
        out.fail("selection probe: exact MEDIAN differs from the oracle");
      }
    } catch (const std::exception& e) {
      out.fail(std::string("selection probe threw: ") + e.what());
    }
    metrics.push_back(
        {run.bits_metric,
         static_cast<double>(twin.net.summary(true).total_bits - before),
         "bits"});
    metrics.push_back(
        {run.ms_metric, sum(tracer.self_ns(run.span)) / 1e6, "ms"});
  }
}

}  // namespace

void probe_layers(Runner& runner, std::uint64_t seed, Tracer& tracer,
                  Outcome& out, std::vector<Metric>& metrics) {
  auto span = tracer.span("probes");
  const Live& l = runner.live();
  const std::vector<QuerySpec> queries = workload_queries(runner, seed);
  probe_sim(l, seed, tracer, out, metrics);
  probe_codec(l, queries, tracer, out, metrics);
  if (l.svc->cube() == nullptr) probe_twin_cube(l, queries, seed, tracer);
  probe_executor(l, queries, seed, tracer, out, metrics);
  probe_sketch(l, seed, tracer, out, metrics);
  probe_selection(l, seed, tracer, out, metrics);
}

}  // namespace perfbench
