// Long-running concurrent query service.
//
// The classic stack (parser -> planner -> executor) answers one query at a
// time, paying a full tree aggregation per question. The service is the
// multi-tenant layer on top: clients register one-shot and continuous
// (`EVERY n EPOCHS`) queries, sensor updates arrive in per-epoch batches,
// and due queries are answered each epoch.
//
// Admission gives every query one of three routes:
//
//   executor — median/quantile queries, and every query in naive mode: the
//              per-query one-shot executor;
//   group    — the other stats and COUNT_DISTINCT queries: a shared group
//              of the region store (region_store.hpp), a pinned maintained
//              region whose one wave per epoch serves all its subscribers;
//   cube     — with use_cube on, cube-eligible queries: the multiresolution
//              cube (cube::Cube), whose planner covers the region with the
//              bit-cheapest mix of maintained cells and residue collections.
//
// Shared state is refreshed incrementally: waves descend only into subtrees
// whose dirty marks show a change since the last visit.
//
// One serve routine answers every query, trying the zero-bit sources first:
//
//   1. the store's drift bracket of the query's region (use_cache on, stats
//      aggregates on the group or cube route), when it meets the ERROR;
//   2. the cube cells' composed drift brackets (cube-routed stats queries);
//   3. a fresh answer: the executor's, or cube::fresh_answer of the route's
//      fresh partial, the group's shared wave (the first due subscriber of
//      an epoch pays it, the rest ride it) or a fresh cube serve.
//
// A stats group's subscribers are answered alike: if any due subscriber
// needs a fresh collection, all of them get the fresh answer that epoch.
//
// Concurrency model: submit_batch() parses, plans and canonicalizes regions
// on a deterministic work-stealing farm (pure, per-cell work); everything
// that touches the simulated network stays serial, in query-id order. The
// answer stream is therefore byte-identical at any thread count — the same
// discipline the bench farm uses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.hpp"
#include "src/common/trial_farm.hpp"
#include "src/common/types.hpp"
#include "src/cube/cube.hpp"
#include "src/query/executor.hpp"
#include "src/query/planner.hpp"
#include "src/service/region_store.hpp"

namespace sensornet::service {

using QueryId = std::uint32_t;

/// Margin (in epochs) baked into collected bundles: stored bundles and cube
/// cells bracket ranged regions for this many epochs of staleness.
inline constexpr std::uint32_t kCacheHorizonEpochs = 8;

struct ServiceConfig {
  /// Drift model: a reading moves by at most this much per epoch (enforced
  /// on the update feed; the cache's bounds are sound exactly because of
  /// this).
  Value max_delta = 4;
  /// Off = the naive baseline: every due query re-runs the one-shot
  /// executor, no marks, no cache. The bench's comparator.
  bool share_aggregation = true;
  /// Serve stats queries from the region store's drift brackets, and keep
  /// cube serves' composed bundles there. Off: every answer is collected
  /// fresh or, for cube-routed queries, bracketed by the cube's cells.
  bool use_cache = true;
  /// Route cube-eligible queries through the multiresolution cube. Off by
  /// default: the cube pays cell-refresh bits, which only amortize under a
  /// range-query workload.
  bool use_cube = false;
  /// Cube resolution levels (see cube::CubeConfig::levels).
  unsigned cube_levels = 4;
  /// HLL registers of the cube's COUNT_DISTINCT partials; 0 = stats only,
  /// and approximate-distinct queries fall back to their shared group.
  unsigned cube_distinct_registers = 0;
  /// Workers for submit_batch's parse/plan stage; 0 = hardware concurrency.
  unsigned threads = 1;
};

/// One sensor's new reading for the epoch being run.
struct SensorUpdate {
  NodeId node = 0;
  Value value = 0;
};

struct Answer {
  QueryId id = 0;
  std::uint32_t epoch = 0;
  double value = 0.0;
  /// Deterministic bound on |value - exact_now|; 0 for fresh collections.
  /// Randomized estimates (approximate COUNT_DISTINCT) carry a statistical
  /// guarantee from their plan instead — exact is false, bound stays 0.
  double error_bound = 0.0;
  bool exact = true;
  bool from_cache = false;
  /// The WHERE region matched no readings (MIN, MAX, AVG, MEDIAN and
  /// QUANTILE undefined; value 0). Every route reports it the same way.
  bool empty_selection = false;
};

/// Outcome of a successful submission.
struct Admission {
  QueryId id = 0;
  bool continuous = false;
  std::string plan;  // human-readable route through the service
  /// One-shot queries are answered at admission; continuous ones first
  /// answer at their next due epoch.
  std::optional<Answer> answer;
};

/// Answer totals. cache_hits and the cube counts are read from their owners
/// (CacheCounters::hits, CubeStats::fresh_serves / stale_serves).
struct ServiceTelemetry {
  std::uint64_t answers = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t executor_runs = 0;
  /// Cube-path serves: fresh (cells refreshed / residues run) vs stale
  /// (zero-bit per-cell drift brackets that met the tolerance).
  std::uint64_t cube_fresh_answers = 0;
  std::uint64_t cube_stale_answers = 0;
  std::uint64_t updates_applied = 0;
};

/// Where one query's cost went, accumulated over its lifetime. Bits and
/// messages follow the marginal-cost rule: the first due subscriber of a
/// group each epoch pays the whole shared wave, and everyone after rides
/// the warmed partials for free — so summing bits_on_air over queries (plus
/// the service-level mark wave) reproduces the network total.
struct QueryCost {
  std::uint64_t answers = 0;
  std::uint64_t cache_hits = 0;    // answered from the region store
  std::uint64_t cube_stale = 0;    // answered from cube cell brackets
  std::uint64_t fresh = 0;         // answered by a collection / executor run
  std::uint64_t bits_on_air = 0;   // payload + header bits this query caused
  std::uint64_t messages = 0;
  /// Accumulated (tolerance - bound) over cache-served answers: how much
  /// slack the query's epsilon left unused. Large slack means the client
  /// could tighten ERROR and still be served from cache.
  double bound_slack = 0.0;
};

/// One shared group's cost, accumulated over its lifetime. Bits include the
/// install broadcast at creation and every collection wave since.
struct GroupCost {
  std::uint64_t collections = 0;  // fresh waves the group paid
  std::uint64_t bits_on_air = 0;
  std::uint64_t messages = 0;
  std::uint32_t subscribers = 0;  // live continuous subscribers (snapshot)
};

/// Full cost-attribution view, assembled by telemetry_snapshot().
struct TelemetrySnapshot {
  ServiceTelemetry totals;
  CacheCounters cache;
  SharedPlanStats plan;
  /// Cube-side telemetry (all zero when use_cube is off).
  cube::CubeStats cube;
  /// Dirty-mark propagation is a service-level cost: no single query causes
  /// an update batch, so the mark wave's bits live here, not in QueryCost.
  std::uint64_t mark_bits_on_air = 0;
  std::uint64_t mark_messages = 0;
  std::map<QueryId, QueryCost> queries;
  std::map<GroupId, GroupCost> groups;
};

class QueryService {
 public:
  QueryService(query::Deployment deployment, ServiceConfig config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Parses, plans and admits one query. Malformed text and degenerate
  /// WHERE regions come back as failures carrying the parser/planner
  /// diagnostic — admission errors are expected client behavior, not bugs.
  Result<Admission> submit(const std::string& text);

  /// Batch admission: the pure front half (parse/plan/region) runs on the
  /// work-stealing farm; admission itself is serial in submission order, so
  /// results are independent of thread count.
  std::vector<Result<Admission>> submit_batch(
      const std::vector<std::string>& texts);

  /// Deregisters a continuous query. Returns false for unknown/one-shot
  /// ids. Shared groups outlive their subscribers — their warmed partials
  /// stay useful for the next subscriber.
  bool cancel(QueryId id);

  /// Advances the epoch: applies the update batch (validating the drift
  /// model — at most one update per node per epoch, |new - old| <=
  /// max_delta, values in [0, max_value_bound]), propagates dirty marks,
  /// and answers every due continuous query, in query-id order.
  std::vector<Answer> run_epoch(std::span<const SensorUpdate> updates);

  std::uint32_t epoch() const { return epoch_; }
  std::size_t live_queries() const { return live_.size(); }

  ServiceTelemetry telemetry() const;
  const SharedPlanStats& plan_stats() const { return store_.stats(); }
  const RegionStore& store() const { return store_; }
  /// Null when use_cube is off.
  const cube::Cube* cube() const { return cube_.get(); }
  const query::Planner& planner() const { return planner_; }

  /// Assembles the full cost-attribution view: totals, cache outcome
  /// counters, scheduler stats, cube stats, the service-level mark-wave
  /// bucket, and the per-query / per-group cost ledgers (with live
  /// subscriber counts).
  TelemetrySnapshot telemetry_snapshot() const;

 private:
  /// The route admission gives a query (see the file comment).
  enum class Route { kExecutor, kGroup, kCube };

  struct LiveQuery {
    QueryId id = 0;
    query::Query q;
    query::CostedPlan plan;
    query::RegionSignature region;
    Route route = Route::kExecutor;
    GroupId group = 0;  // kGroup: the store's group
    std::uint32_t registered_epoch = 0;
    std::uint32_t every = 0;  // 0 for one-shot
  };

  /// The pure front half of admission (no shared state, farm-safe).
  struct ParsedQuery {
    bool ok = false;
    std::string error;
    query::Query q;
    query::CostedPlan plan;
    query::RegionSignature region;
  };

  ParsedQuery parse_and_plan(const std::string& text) const;
  Admission admit(ParsedQuery&& parsed);
  /// Answers `lq` now (see the file comment); `collect` skips the store's
  /// bracket because a groupmate forces a fresh collection this epoch.
  Answer serve(const LiveQuery& lq, bool collect);

  query::Deployment deployment_;
  ServiceConfig config_;
  query::Executor executor_;
  RegionStore store_;
  /// Built over the store's DirtyTracker (one mark wave feeds both); null
  /// when use_cube is off.
  std::unique_ptr<cube::Cube> cube_;
  /// Catalog-aware planner; all admissions and cube re-plans go through it.
  query::Planner planner_;
  TrialFarm farm_;

  std::uint32_t epoch_ = 0;
  QueryId next_id_ = 1;
  std::map<QueryId, LiveQuery> live_;  // ordered: answers come out by id
  ServiceTelemetry telemetry_;  // the engine's own counts (see telemetry())

  // ---- cost attribution ledgers (see TelemetrySnapshot) -----------------
  std::map<QueryId, QueryCost> query_costs_;
  std::map<GroupId, GroupCost> group_costs_;
  std::uint64_t mark_bits_on_air_ = 0;
};

}  // namespace sensornet::service
