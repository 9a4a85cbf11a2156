#include "src/service/engine.hpp"

#include <algorithm>
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

CostDelta cost_since(const sim::Network& net,
                     const sim::Network::DirStats& before) {
  const sim::Network::DirStats& after = net.sent_totals();
  return CostDelta{(after.payload_bits + after.header_bits) -
                       (before.payload_bits + before.header_bits),
                   after.messages - before.messages};
}

}  // namespace

QueryService::QueryService(query::Deployment deployment, ServiceConfig config)
    : deployment_(deployment),
      config_(config),
      executor_(deployment),
      store_(deployment.net, deployment.tree,
             cube::DriftModel{deployment.max_value_bound, config.max_delta,
                              kCacheHorizonEpochs}),
      cube_(config.use_cube
                ? std::make_unique<cube::Cube>(
                      deployment.net, deployment.tree, store_.drift(),
                      store_.dirty(),
                      cube::CubeConfig{config.cube_levels,
                                       config.cube_distinct_registers})
                : nullptr),
      planner_(deployment.max_value_bound, cube_.get()),
      farm_(config.threads) {
  SENSORNET_EXPECTS(config.max_delta >= 0);
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
    adm.plan = "naive: " + lq.plan.description;
  } else if (cube_ && planner_.cube_eligible(lq.plan)) {
    lq.route = Route::kCube;
    adm.plan = "cube: " + lq.plan.description;
  } else if (config_.share_aggregation &&
             (stats_family ||
              lq.q.agg == query::AggregateKind::kCountDistinct)) {
    lq.route = Route::kGroup;
    // A new group's install broadcast is charged to the group.
    const auto before = deployment_.net.sent_totals();
    if (stats_family) {
      lq.group = store_.pin_stats(lq.region);
      adm.plan = "shared stats bundle, group ";
    } else {
      lq.group = store_.pin_distinct(
          lq.region, lq.plan.strategy == query::Strategy::kApproxDistinct
                         ? lq.plan.registers
                         : 0);
      adm.plan = "shared distinct group ";
    }
    adm.plan += std::to_string(lq.group);
    const CostDelta d = cost_since(deployment_.net, before);
    group_costs_[lq.group].bits_on_air += d.bits;
    group_costs_[lq.group].messages += d.messages;
  } else {
    adm.plan = "per-query: " + lq.plan.description;
  }

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.instant("query.admit", "service", deployment_.net.now(), 0, "id",
                 lq.id, "group", lq.group);
  }

  if (adm.continuous) {
    live_.emplace(lq.id, std::move(lq));
  } else {
    adm.answer = serve(lq, /*collect=*/false);
  }
  return adm;
}

bool QueryService::cancel(QueryId id) {
  return live_.erase(id) != 0;
}

Answer QueryService::serve(const LiveQuery& lq, bool collect) {
  const bool stats =
      query::family(lq.q.agg) == query::AggregateFamily::kStats;
  Answer a;
  a.id = lq.id;
  a.epoch = epoch_;
  // 1. The store's bracket of the region.
  std::optional<cube::BracketedAnswer> answer;
  if (lq.route != Route::kExecutor && stats && config_.use_cache && !collect) {
    answer = store_.lookup(lq.region, lq.q.agg, lq.q.error, epoch_);
  }
  a.from_cache = answer.has_value();
  // 2. The cube cells' brackets, under a plan re-costed for the cube's
  // current freshness: a cell refreshed for another query this epoch is
  // free to reuse now.
  std::optional<query::CostedPlan> plan;
  if (!answer && lq.route == Route::kCube) {
    Result<query::CostedPlan> replanned = planner_.plan(lq.q);
    SENSORNET_EXPECTS(replanned.ok());  // admitted queries stay plannable
    plan = std::move(replanned).value();
    if (stats) {
      answer = cube_->stale_bracket(*plan, lq.q.agg, lq.q.error, epoch_);
    }
  }
  const bool bracketed = answer.has_value();

  QueryCost& qc = query_costs_[lq.id];
  ++qc.answers;
  ++telemetry_.answers;
  if (bracketed) {
    qc.bound_slack += cube::error_slack(*answer, lq.q.error);
    ++(a.from_cache ? qc.cache_hits : qc.cube_stale);
  } else {
    // 3. A fresh answer. Marginal cost: a shared collection is idempotent
    // per epoch, so the first due subscriber pays the whole wave and later
    // ones see a zero delta.
    const auto before = deployment_.net.sent_totals();
    const SharedPlanStats waves_before = store_.stats();
    if (lq.route == Route::kExecutor) {
      const query::QueryResult r = executor_.run(lq.q, lq.plan);
      if (!r.empty_selection) {
        answer = cube::BracketedAnswer{r.value, 0.0, r.is_exact};
      }
      ++telemetry_.executor_runs;
    } else {
      cube::BundlePartial served;
      if (lq.route == Route::kCube) {
        served = cube_->serve(*plan, epoch_);
        // The composed bundle brackets the whole region (cell inners nest
        // inside the region's inner, cell outers cover its outer).
        if (stats && config_.use_cache) {
          store_.store(lq.region, epoch_, served.bundle);
        }
      }
      answer = cube::fresh_answer(
          lq.q.agg, lq.route == Route::kCube
                        ? served
                        : store_.collect(lq.group, epoch_));
    }
    a.empty_selection = !answer;
    const CostDelta d = cost_since(deployment_.net, before);
    ++qc.fresh;
    qc.bits_on_air += d.bits;
    qc.messages += d.messages;
    if (lq.route == Route::kGroup) {
      const SharedPlanStats& waves = store_.stats();
      GroupCost& gc = group_costs_[lq.group];
      gc.bits_on_air += d.bits;
      gc.messages += d.messages;
      gc.collections += (waves.stats_waves - waves_before.stats_waves) +
                        (waves.distinct_waves - waves_before.distinct_waves);
    }
  }
  if (answer) {
    a.value = answer->value;
    a.error_bound = answer->bound;
    a.exact = answer->exact;
  }

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    // The answer's source: cached (0 for a fresh collection), cube_stale or
    // cube_fresh.
    const bool cube = lq.route == Route::kCube;
    const char* source = bracketed && !a.from_cache ? "cube_stale"
                         : !bracketed && cube       ? "cube_fresh"
                                                    : "cached";
    ring.instant("query.answer", "service", deployment_.net.now(), 0, "id",
                 lq.id, source, bracketed || cube ? 1 : 0);
  }
  return a;
}

std::vector<Answer> QueryService::run_epoch(
    std::span<const SensorUpdate> updates) {
  // Check the whole batch against the drift model the store's brackets
  // rest on before touching anything: a rejected batch changes nothing (an
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
    const auto before = deployment_.net.sent_totals();
    store_.note_updates(touched, epoch_);
    mark_bits_on_air_ += cost_since(deployment_.net, before).bits;
  }

  // Which pinned stats groups must collect fresh this epoch? A single due
  // subscriber whose tolerance the store's bracket cannot meet forces the
  // collection — and once it is paid, every due subscriber of the group
  // rides it for free, so "partially cached" never happens within a group.
  // Decided for every group before any subscriber is served.
  const auto is_due = [&](const LiveQuery& lq) {
    return lq.every != 0 && epoch_ > lq.registered_epoch &&
           (epoch_ - lq.registered_epoch) % lq.every == 0;
  };
  const auto pinned_stats = [](const LiveQuery& lq) {
    return lq.route == Route::kGroup &&
           query::family(lq.q.agg) == query::AggregateFamily::kStats;
  };
  std::vector<GroupId> collect;
  if (config_.use_cache) {
    for (const auto& [id, lq] : live_) {
      if (pinned_stats(lq) && is_due(lq) &&
          !store_.probe(lq.region, lq.q.agg, lq.q.error, epoch_)) {
        collect.push_back(lq.group);
      }
    }
  }

  std::vector<Answer> answers;
  for (const auto& [id, lq] : live_) {  // map order == id order
    if (!is_due(lq)) continue;
    answers.push_back(
        serve(lq, pinned_stats(lq) && std::find(collect.begin(), collect.end(),
                                                lq.group) != collect.end()));
  }

  obs::TraceRing& ring = obs::TraceRing::global();
  if (ring.enabled()) {
    ring.complete("epoch", "service", epoch_t0,
                  deployment_.net.now() - epoch_t0, 0, "epoch", epoch_,
                  "answers", answers.size());
  }
  return answers;
}

ServiceTelemetry QueryService::telemetry() const {
  ServiceTelemetry t = telemetry_;
  t.cache_hits = store_.counters().hits;
  if (cube_) {
    t.cube_fresh_answers = cube_->stats().fresh_serves;
    t.cube_stale_answers = cube_->stats().stale_serves;
  }
  return t;
}

TelemetrySnapshot QueryService::telemetry_snapshot() const {
  TelemetrySnapshot snap;
  snap.totals = telemetry();
  snap.cache = store_.counters();
  snap.plan = store_.stats();
  if (cube_) snap.cube = cube_->stats();
  snap.mark_bits_on_air = mark_bits_on_air_;
  snap.mark_messages = snap.plan.mark_messages;
  snap.queries = query_costs_;
  snap.groups = group_costs_;
  for (const auto& [id, lq] : live_) {
    if (lq.route == Route::kGroup) ++snap.groups[lq.group].subscribers;
  }
  return snap;
}

}  // namespace sensornet::service
