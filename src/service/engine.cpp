#include "src/service/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/error.hpp"
#include "src/obs/trace.hpp"
#include "src/query/lexer.hpp"
#include "src/query/parser.hpp"
#include "src/sim/network.hpp"

namespace sensornet::service {

namespace {

/// Bits/messages spent on the network since `before` — the unit of cost
/// attribution (headers included: bits on air are bits paid).
struct CostDelta {
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;
};

CostDelta cost_since(const sim::Network& net, const sim::CommSummary& before) {
  const sim::CommSummary after = net.summary(/*include_headers=*/true);
  return CostDelta{after.total_bits - before.total_bits,
                   after.total_messages - before.total_messages};
}

/// Exact answer for a stats aggregate from a freshly collected bundle.
Answer bundle_answer(query::AggregateKind agg, const StatsBundle& b) {
  Answer a;
  const RangeStats& core = b.core;
  switch (agg) {
    case query::AggregateKind::kCount:
      a.value = static_cast<double>(core.count);
      break;
    case query::AggregateKind::kSum:
      a.value = static_cast<double>(core.sum);
      break;
    case query::AggregateKind::kAvg:
      if (core.count == 0) {
        a.empty_selection = true;
      } else {
        a.value = static_cast<double>(core.sum) /
                  static_cast<double>(core.count);
      }
      break;
    case query::AggregateKind::kMin:
      if (core.count == 0) {
        a.empty_selection = true;
      } else {
        a.value = static_cast<double>(core.min);
      }
      break;
    case query::AggregateKind::kMax:
      if (core.count == 0) {
        a.empty_selection = true;
      } else {
        a.value = static_cast<double>(core.max);
      }
      break;
    default:
      throw PreconditionError("bundle_answer: not a stats aggregate");
  }
  a.exact = true;
  return a;
}

cube::CubeConfig cube_config_from(const ServiceConfig& c) {
  cube::CubeConfig cc;
  cc.levels = c.cube_levels;
  cc.distinct_registers = c.cube_distinct_registers;
  cc.max_delta = c.max_delta;
  cc.horizon_epochs = c.cache_horizon_epochs;
  return cc;
}

}  // namespace

QueryService::QueryService(query::Deployment deployment, ServiceConfig config)
    : deployment_(deployment),
      config_(config),
      executor_(deployment),
      scheduler_(std::make_unique<SharedPlanScheduler>(
          deployment.net, deployment.tree, deployment.max_value_bound,
          config.max_delta, config.cache_horizon_epochs)),
      cube_(config.use_cube
                ? std::make_unique<cube::Cube>(
                      deployment.net, deployment.tree,
                      deployment.max_value_bound, scheduler_->dirty(),
                      cube_config_from(config))
                : nullptr),
      planner_(deployment.max_value_bound, cube_.get()),
      cache_(deployment.max_value_bound, config.max_delta,
             config.cache_horizon_epochs, config.cache_capacity),
      farm_(config.threads) {
  SENSORNET_EXPECTS(config.max_delta >= 0);
  SENSORNET_EXPECTS(config.cache_horizon_epochs >= 1);
}

QueryService::~QueryService() = default;

QueryService::ParsedQuery QueryService::parse_and_plan(
    const std::string& text) const {
  ParsedQuery out;
  try {
    out.q = query::parse_query(text);
  } catch (const query::QueryError& e) {
    out.error = e.what();
    return out;
  }
  Result<query::CostedPlan> planned = planner_.plan(out.q);
  if (!planned.ok()) {
    out.error = planned.error();
    return out;
  }
  out.plan = std::move(planned).value();
  out.region = out.plan.region;
  out.ok = true;
  return out;
}

Result<Admission> QueryService::submit(const std::string& text) {
  ParsedQuery parsed = parse_and_plan(text);
  if (!parsed.ok) return Result<Admission>::failure(std::move(parsed.error));
  return admit(std::move(parsed));
}

std::vector<Result<Admission>> QueryService::submit_batch(
    const std::vector<std::string>& texts) {
  // Pure front half in parallel; cells share nothing and derive nothing from
  // execution order, so any worker count yields identical ParsedQuery slots.
  std::vector<ParsedQuery> parsed = farm_.map<ParsedQuery>(
      texts.size(),
      [&](std::size_t cell) { return parse_and_plan(texts[cell]); });
  // Serial back half in submission order: id allocation, group creation and
  // install broadcasts all touch the shared network.
  std::vector<Result<Admission>> out;
  out.reserve(texts.size());
  for (ParsedQuery& p : parsed) {
    if (!p.ok) {
      out.push_back(Result<Admission>::failure(std::move(p.error)));
    } else {
      out.push_back(admit(std::move(p)));
    }
  }
  return out;
}

Admission QueryService::admit(ParsedQuery&& parsed) {
  LiveQuery lq;
  lq.id = next_id_++;
  lq.q = std::move(parsed.q);
  lq.plan = std::move(parsed.plan);
  lq.region = parsed.region;
  lq.registered_epoch = epoch_;
  lq.every = lq.q.every_epochs.value_or(0);

  Admission adm;
  adm.id = lq.id;
  adm.continuous = lq.every != 0;

  const bool stats_family =
      query::family(lq.q.agg) == query::AggregateFamily::kStats;
  if (!config_.share_aggregation && !config_.use_cube) {
    lq.path = Path::kExecutor;
    adm.plan = "naive: " + lq.plan.description;
  } else if (config_.use_cube && planner_.cube_eligible(lq.plan)) {
    lq.path = Path::kCube;
    adm.plan = "cube: " + lq.plan.description;
  } else if (config_.share_aggregation && stats_family) {
    lq.path = Path::kStats;
    const auto before = deployment_.net.summary(true);
    lq.group = scheduler_->ensure_stats_group(lq.region);
    const CostDelta d = cost_since(deployment_.net, before);
    group_costs_[lq.group].bits_on_air += d.bits;
    group_costs_[lq.group].messages += d.messages;
    adm.plan = "shared stats bundle, group " + std::to_string(lq.group);
  } else if (config_.share_aggregation &&
             lq.q.agg == query::AggregateKind::kCountDistinct) {
    lq.path = Path::kDistinct;
    const unsigned registers =
        lq.plan.strategy == query::Strategy::kApproxDistinct
            ? lq.plan.registers
            : 0;
    const auto before = deployment_.net.summary(true);
    lq.group = scheduler_->ensure_distinct_group(lq.region, registers);
    const CostDelta d = cost_since(deployment_.net, before);
    group_costs_[lq.group].bits_on_air += d.bits;
    group_costs_[lq.group].messages += d.messages;
    adm.plan = "shared distinct group " + std::to_string(lq.group);
  } else {
    lq.path = Path::kExecutor;  // median/quantile: no shared representation
    adm.plan = "per-query: " + lq.plan.description;
  }

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("query.admit", "service", deployment_.net.now(), 0, "id",
                 lq.id, "group", lq.group);
  }

  if (adm.continuous) {
    live_.emplace(lq.id, std::move(lq));
  } else if (lq.path == Path::kCube) {
    adm.answer = serve_cube(lq);
  } else {
    // Single cache interrogation per serve: a lookup() hit is always
    // consumed, so the cache's hit counter equals answers served from it.
    std::optional<CachedAnswer> hit;
    if (lq.path == Path::kStats && config_.use_cache) {
      hit = cache_.lookup(lq.region, lq.q.agg, lq.q.error, epoch_);
    }
    adm.answer = hit ? answer_cached(lq, *hit) : answer_fresh(lq);
  }
  return adm;
}

bool QueryService::cancel(QueryId id) {
  return live_.erase(id) != 0;
}

bool QueryService::cache_could_serve(const LiveQuery& lq) const {
  // probe(), not lookup(): this is the planning pass, and a groupmate's
  // veto can still force this query onto the fresh path — counting a hit
  // here would overstate serves (see ResultCache::probe).
  return cache_
      .probe(lq.region, lq.q.agg, lq.q.error, epoch_)
      .has_value();
}

Answer QueryService::answer_cached(const LiveQuery& lq,
                                   const CachedAnswer& hit) {
  Answer a;
  a.id = lq.id;
  a.epoch = epoch_;
  a.value = hit.value;
  a.error_bound = hit.bound;
  a.exact = hit.exact;
  a.from_cache = true;
  ++telemetry_.answers;
  ++telemetry_.cache_hits;

  QueryCost& qc = query_costs_[lq.id];
  ++qc.answers;
  ++qc.cache_hits;
  const double tolerance =
      lq.q.error ? *lq.q.error * std::max(1.0, std::abs(hit.value)) : 0.0;
  qc.bound_slack += tolerance - hit.bound;  // >= 0: the hit met the gate

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("query.answer", "service", deployment_.net.now(), 0, "id",
                 lq.id, "cached", 1);
  }
  return a;
}

Answer QueryService::serve_cube(const LiveQuery& lq) {
  // Tier 1: the region-keyed result cache (stats aggregates only) — a prior
  // cube serve stored the composed bundle, so repeats within the drift
  // tolerance are free.
  const bool stats_family =
      query::family(lq.q.agg) == query::AggregateFamily::kStats;
  if (config_.use_cache && stats_family) {
    if (const auto hit =
            cache_.lookup(lq.region, lq.q.agg, lq.q.error, epoch_)) {
      return answer_cached(lq, *hit);
    }
  }

  // Re-plan so the cover reflects the cube's current freshness: a cell
  // refreshed for another query this epoch is free to reuse now.
  Result<query::CostedPlan> replanned = planner_.plan(lq.q);
  SENSORNET_EXPECTS(replanned.ok());  // admitted queries stay plannable
  const query::CostedPlan plan = std::move(replanned).value();

  // Tier 2: per-cell drift brackets — zero bits when every step is a
  // maintained cell and the composed bound fits the query's tolerance.
  if (stats_family) {
    if (const auto br = cube_->stale_bracket(plan, lq.q.agg, epoch_)) {
      const double tolerance =
          lq.q.error ? *lq.q.error * std::max(1.0, std::abs(br->value)) : 0.0;
      if (br->bound <= tolerance) {
        Answer a;
        a.id = lq.id;
        a.epoch = epoch_;
        a.value = br->value;
        a.error_bound = br->bound;
        a.exact = br->exact;
        ++telemetry_.answers;
        ++telemetry_.cube_stale_answers;
        QueryCost& qc = query_costs_[lq.id];
        ++qc.answers;
        ++qc.cube_stale;
        qc.bound_slack += tolerance - br->bound;
        obs::TraceRing& ring = obs::TraceRing::global();
        if (ring.enabled()) {
          ring.instant("query.answer", "service", deployment_.net.now(), 0,
                       "id", lq.id, "cube_stale", 1);
        }
        return a;
      }
    }
  }

  // Tier 3: fresh cube serve — refresh the cover's cells (incremental
  // descent), run pruned residues, compose.
  const auto before = deployment_.net.summary(true);
  const cube::ServeResult r = cube_->serve(plan, epoch_);
  Answer a;
  if (lq.q.agg == query::AggregateKind::kCountDistinct) {
    SENSORNET_EXPECTS(r.has_distinct);
    a.value = r.distinct_estimate;
    a.exact = false;
  } else {
    a = bundle_answer(lq.q.agg, r.bundle);
  }
  a.id = lq.id;
  a.epoch = epoch_;
  // The composed bundle brackets the whole region (cell inners nest inside
  // the region's inner; cell outers cover its outer), so it is storable
  // under the cache's drift model like any collected bundle.
  if (config_.use_cache && stats_family &&
      std::find(cube_stored_this_epoch_.begin(), cube_stored_this_epoch_.end(),
                lq.region) == cube_stored_this_epoch_.end()) {
    cache_.store(lq.region, epoch_, r.bundle);
    cube_stored_this_epoch_.push_back(lq.region);
  }
  ++telemetry_.answers;
  ++telemetry_.cube_fresh_answers;

  const CostDelta d = cost_since(deployment_.net, before);
  QueryCost& qc = query_costs_[lq.id];
  ++qc.answers;
  ++qc.fresh;
  qc.bits_on_air += d.bits;
  qc.messages += d.messages;

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("query.answer", "service", deployment_.net.now(), 0, "id",
                 lq.id, "cube_fresh", 1);
  }
  return a;
}

Answer QueryService::answer_fresh(const LiveQuery& lq) {
  const auto before = deployment_.net.summary(true);
  const SharedPlanStats waves_before = scheduler_->stats();
  Answer a;
  switch (lq.path) {
    case Path::kStats: {
      const StatsBundle& b = scheduler_->collect_stats(lq.group, epoch_);
      if (config_.use_cache &&
          std::find(stored_this_epoch_.begin(), stored_this_epoch_.end(),
                    lq.group) == stored_this_epoch_.end()) {
        cache_.store(lq.region, epoch_, b);
        stored_this_epoch_.push_back(lq.group);
      }
      a = bundle_answer(lq.q.agg, b);
      ++telemetry_.fresh_stats_answers;
      break;
    }
    case Path::kDistinct: {
      a.value = scheduler_->collect_distinct(lq.group, epoch_);
      a.exact = lq.plan.strategy == query::Strategy::kExactDistinct;
      ++telemetry_.distinct_answers;
      break;
    }
    case Path::kCube:
      throw PreconditionError("cube path is served by serve_cube()");
    case Path::kExecutor: {
      const query::QueryResult r = executor_.run(lq.q, lq.plan);
      a.value = r.value;
      a.exact = r.is_exact;
      ++telemetry_.executor_runs;
      break;
    }
  }
  a.id = lq.id;
  a.epoch = epoch_;
  ++telemetry_.answers;

  // Marginal-cost attribution: a collection is idempotent per (group,
  // epoch), so the first due subscriber pays the whole wave here and later
  // groupmates see a zero delta.
  const CostDelta d = cost_since(deployment_.net, before);
  QueryCost& qc = query_costs_[lq.id];
  ++qc.answers;
  ++qc.fresh;
  qc.bits_on_air += d.bits;
  qc.messages += d.messages;
  if (lq.path == Path::kStats || lq.path == Path::kDistinct) {
    const SharedPlanStats waves_after = scheduler_->stats();
    GroupCost& gc = group_costs_[lq.group];
    gc.bits_on_air += d.bits;
    gc.messages += d.messages;
    gc.collections += (waves_after.stats_waves - waves_before.stats_waves) +
                      (waves_after.distinct_waves -
                       waves_before.distinct_waves);
  }

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("query.answer", "service", deployment_.net.now(), 0, "id",
                 lq.id, "cached", 0);
  }
  return a;
}

std::vector<Answer> QueryService::run_epoch(
    std::span<const SensorUpdate> updates) {
  // Check the whole batch against the drift model the cache's soundness
  // rests on before touching anything: a rejected batch changes nothing (an
  // update applied without its dirty mark would leave cached partials
  // "fresh" over a changed subtree).
  std::vector<NodeId> nodes;
  nodes.reserve(updates.size());
  for (const SensorUpdate& u : updates) {
    SENSORNET_EXPECTS(u.node < deployment_.net.node_count());
    SENSORNET_EXPECTS(u.value >= 0 &&
                      u.value <= deployment_.max_value_bound);
    const auto items = deployment_.net.items(u.node);
    SENSORNET_EXPECTS(!items.empty());
    const Value old = items[0];
    const Value delta = u.value > old ? u.value - old : old - u.value;
    SENSORNET_EXPECTS(delta <= config_.max_delta);
    nodes.push_back(u.node);
  }
  std::sort(nodes.begin(), nodes.end());
  // At most one update per node per epoch.
  SENSORNET_EXPECTS(std::adjacent_find(nodes.begin(), nodes.end()) ==
                    nodes.end());

  ++epoch_;
  stored_this_epoch_.clear();
  cube_stored_this_epoch_.clear();
  const SimTime epoch_t0 = deployment_.net.now();

  std::vector<NodeId> touched;
  touched.reserve(updates.size());
  for (const SensorUpdate& u : updates) {
    // No-op writes don't dirty the tree.
    if (u.value == deployment_.net.items(u.node)[0]) continue;
    deployment_.net.update_item(u.node, 0, u.value);
    touched.push_back(u.node);
    ++telemetry_.updates_applied;
  }
  if (config_.share_aggregation || config_.use_cube) {
    // The mark wave serves every incremental consumer at once (shared
    // groups and cube cells ride the same marks); no single query caused
    // it, so its bits land in the service-level bucket.
    const auto before = deployment_.net.summary(true);
    scheduler_->note_updates(touched, epoch_);
    const CostDelta d = cost_since(deployment_.net, before);
    mark_bits_on_air_ += d.bits;
    mark_messages_ += d.messages;
  }

  // Which stats groups can be served entirely from cache this epoch? A
  // single subscriber whose tolerance the cache cannot meet forces a fresh
  // collection — and once it is paid, every due subscriber of the group
  // rides it for free, so "partially cached" never happens within a group.
  std::vector<GroupId> fresh_needed;
  std::map<QueryId, CachedAnswer> cached;
  const auto is_due = [&](const LiveQuery& lq) {
    return lq.every != 0 && epoch_ > lq.registered_epoch &&
           (epoch_ - lq.registered_epoch) % lq.every == 0;
  };
  const auto due_stats = [&](const LiveQuery& lq) {
    return lq.path == Path::kStats && is_due(lq);
  };
  if (config_.share_aggregation && config_.use_cache) {
    for (const auto& [id, lq] : live_) {
      if (due_stats(lq) && !cache_could_serve(lq)) {
        fresh_needed.push_back(lq.group);
      }
    }
    // Take the cached answers now, before this epoch's first store: a fresh
    // collection's store may evict the very entry a group was planned from.
    for (const auto& [id, lq] : live_) {
      if (!due_stats(lq) || std::find(fresh_needed.begin(), fresh_needed.end(),
                                      lq.group) != fresh_needed.end()) {
        continue;
      }
      // Every due subscriber of a non-fresh group probed successfully just
      // now, and nothing moved since — the lookup must hit.
      const auto hit = cache_.lookup(lq.region, lq.q.agg, lq.q.error, epoch_);
      SENSORNET_EXPECTS(hit.has_value());
      cached.emplace(id, *hit);
    }
  }

  std::vector<Answer> answers;
  for (const auto& [id, lq] : live_) {  // map order == id order
    if (!is_due(lq)) continue;
    if (lq.path == Path::kCube) {
      answers.push_back(serve_cube(lq));
    } else if (const auto it = cached.find(id); it != cached.end()) {
      answers.push_back(answer_cached(lq, it->second));
    } else {
      answers.push_back(answer_fresh(lq));
    }
  }

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("epoch", "service", epoch_t0,
                  deployment_.net.now() - epoch_t0, 0, "epoch", epoch_,
                  "answers", answers.size());
  }
  return answers;
}

TelemetrySnapshot QueryService::telemetry_snapshot() const {
  TelemetrySnapshot snap;
  snap.totals = telemetry_;
  snap.cache = cache_.counters();
  snap.plan = scheduler_->stats();
  if (cube_) snap.cube = cube_->stats();
  snap.mark_bits_on_air = mark_bits_on_air_;
  snap.mark_messages = mark_messages_;
  snap.queries = query_costs_;
  snap.groups = group_costs_;
  for (const auto& [id, lq] : live_) {
    if (lq.path == Path::kExecutor || lq.path == Path::kCube) continue;
    ++snap.groups[lq.group].subscribers;
  }
  return snap;
}

}  // namespace sensornet::service
