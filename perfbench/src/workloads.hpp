// The three workloads and the closed-loop runner that drives
// service::QueryService through its public API.
//
// A run is: set-up (topology, tree, service, continuous admissions, warm-up
// rounds), then a timed phase of rounds. One round submits the round's
// one-shot queries one by one, then calls run_epoch() with the round's
// update batch; every call waits for its answer. Inputs depend only on the
// seed, so the first window_rounds() rounds of the timed phase are identical
// on every run — the simulated metrics and the answer checksum are taken
// over that window and repeat exactly, while host-time metrics use every
// round the time budget allows.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "src/common/rng.hpp"
#include "src/cube/cube.hpp"
#include "src/net/spanning_tree.hpp"
#include "src/query/ast.hpp"
#include "src/query/plan.hpp"
#include "src/service/engine.hpp"
#include "src/sim/network.hpp"

namespace perfbench {

using sensornet::Xoshiro256;
using sensornet::service::QueryId;
using sensornet::service::QueryService;
using sensornet::service::SensorUpdate;
using sensornet::service::ServiceConfig;

/// Minimum timed rounds of a run: each p90 sees at least 100 epochs.
inline constexpr std::uint32_t kMinRounds = 100;

/// What a workload varies; everything else is the shared runner.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Grid side of the measured deployment, or of the small deployment the
  /// determinism self-check replays.
  virtual unsigned grid_side(bool small) const = 0;
  virtual ServiceConfig config() const = 0;
  virtual std::vector<QuerySpec> continuous(Xoshiro256& rng) const = 0;
  /// The round's one-shot queries, given the current readings and the
  /// admitted continuous queries.
  virtual std::vector<QuerySpec> oneshots(
      std::uint32_t round, const std::vector<Value>& mirror,
      const std::vector<QuerySpec>& continuous, Xoshiro256& rng) const = 0;
  /// Rounds of the simulated-metric window (see the file comment); at
  /// least this many rounds are timed.
  virtual std::uint32_t window_rounds() const { return kMinRounds; }
  /// Share of nodes whose reading drifts each epoch (below 1, drawn as a
  /// few square patches of the grid).
  virtual double update_share() const = 0;
  /// Layer-coverage guard over the window's telemetry; empty when the
  /// workload's target layer did its work.
  virtual std::string guard(
      const sensornet::service::TelemetrySnapshot& before,
      const sensornet::service::TelemetrySnapshot& after,
      std::size_t nodes) const = 0;
};

/// Share of the tree's edges the stats waves between two snapshots did not
/// descend: 1 - edges_descended / (stats_waves * (nodes - 1)); 0 without
/// waves.
double edge_skip_ratio(const sensornet::service::TelemetrySnapshot& before,
                       const sensornet::service::TelemetrySnapshot& after,
                       std::size_t nodes);

const Workload* find_workload(const std::string& name);

/// Times the planner's cost probes for one plan: a "cube.probe" span per
/// plan step (cell_refresh_bits or residue_collect_bits) and one for the
/// tree_collect_bits alternative.
void time_cost_probes(const sensornet::cube::Cube& cube,
                      const sensornet::query::CostedPlan& plan,
                      Tracer& tracer);

/// A built deployment with its service and the benchmark's exact mirror.
struct Live {
  std::unique_ptr<sensornet::sim::Network> net;
  sensornet::net::SpanningTree tree;
  std::unique_ptr<QueryService> svc;
  std::vector<Value> mirror;
  std::vector<QuerySpec> continuous;
  /// Admitted queries by id: the continuous ones, and each one-shot while
  /// its answer is checked.
  std::map<QueryId, QuerySpec> specs;
  /// Continuous queries the service routed through the cube.
  std::set<QueryId> cube_routed;
  std::map<QueryId, sensornet::query::Query> parsed;
  Xoshiro256 rng;
};

/// Counters of one run: operations are submit() and run_epoch() calls; an
/// operation fails when it errors, throws, or delivers a wrong answer.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few diagnostics
  AnswerChecker checker;
  void fail(std::string why);
};

/// Host timings of the timed phase: every submit() and run_epoch() call with
/// its start time (for the host-speed correction) and its raw duration.
/// The host-speed reference is sampled between calls, outside their times.
struct Timings {
  struct Call {
    std::int64_t start_ns = 0;
    double ms = 0.0;
  };
  explicit Timings(HostSpeed& s) : speed(s) {}
  HostSpeed& speed;
  std::vector<Call> epochs;
  std::vector<Call> oneshots;
  std::uint64_t answers = 0;
};

/// Everything the runner does to one deployment.
class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed, bool small, unsigned threads,
         Outcome& outcome, Tracer& tracer);

  /// Builds the deployment and admits the continuous queries; warm-up
  /// rounds follow via round().
  void setup();
  /// One closed-loop round. `batch` submits the round's one-shots through
  /// submit_batch (the determinism check's parallel front half) instead of
  /// one timed submit() each. `replay_plans` re-times the planner on the
  /// round's queries (traced runs only).
  void round(bool batch, bool replay_plans, Timings* timings);

  Live& live() { return *live_; }
  const Workload& workload() const { return w_; }
  std::uint32_t rounds_run() const { return rounds_; }
  Fnv1a& checksum() { return fnv_; }
  std::uint64_t plan_calls() const { return plan_calls_; }

 private:
  void check_answer(const sensornet::service::Answer& a, bool* op_ok);
  std::vector<SensorUpdate> make_updates();
  void replay_plan(const sensornet::query::Query& q);

  const Workload& w_;
  std::uint64_t seed_;
  bool small_;
  unsigned threads_;
  Outcome& out_;
  Tracer& tracer_;
  std::unique_ptr<Live> live_;
  std::uint32_t rounds_ = 0;
  std::uint64_t plan_calls_ = 0;
  Fnv1a fnv_;
};

/// Rounds run before timing starts: every EVERY-1..3 subscription has been
/// served once, and every group, region and cube-geometry install is paid.
inline constexpr std::uint32_t kWarmupRounds = 3;


}  // namespace perfbench
