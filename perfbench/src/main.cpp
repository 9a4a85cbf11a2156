// perfbench — the query service's benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// One single-process, closed-loop caller drives service::QueryService
// (ServiceConfig::threads = 1) through submit() and run_epoch(); every call
// waits for its answer. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans (written to --spans) and reports the per-layer ones.
// Every answer is checked against an exact mirror of the readings, and
// every run replays a small deployment at 1 and at nproc submit_batch
// workers to check that answers and bits do not depend on the worker count.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "src/common/trial_farm.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/comm_stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace service = sensornet::service;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

/// Set-ups per run: at least kMinSetups, and more until kSetupSeconds of
/// host time have passed, so that cheap set-ups average over as long a
/// stretch of host time as costly ones; setup_s is their median.
constexpr int kMinSetups = 21;
constexpr std::int64_t kSetupSeconds = 3;

/// Host-speed samples taken right before and right after each set-up; a
/// set-up is scaled by the median of the samples around it.
constexpr int kSetupSamples = 8;

/// Rounds of the small deployment the determinism check replays.
constexpr std::uint32_t kSmallRounds = 12;

struct SmallRun {
  std::uint64_t checksum = 0;
  std::uint64_t bits = 0;
  std::uint64_t max_node_bits = 0;
  std::uint64_t failed = 0;
  bool operator==(const SmallRun&) const = default;
};

SmallRun small_run(const Workload& w, std::uint64_t seed, unsigned threads) {
  Outcome o;
  Tracer off(false);
  Runner r(w, seed, /*small=*/true, threads, o, off);
  r.setup();
  for (std::uint32_t i = 0; i < kWarmupRounds + kSmallRounds; ++i) {
    r.round(/*batch=*/true, /*replay_plans=*/false, nullptr);
  }
  const auto s = r.live().net->summary(/*include_headers=*/true);
  return {r.checksum().h, s.total_bits, s.max_node_bits, o.failed};
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }


void print_json(bool correct, const Outcome& out,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Outcome out;
  Tracer tracer(args.trace);
  std::vector<std::string> problems;

  // ---- set-up: topology, tree, service, admissions, warm-up rounds -------
  HostSpeed speed;
  std::vector<double> setup_raw_ms, setup_ms;
  std::unique_ptr<Runner> runner;
  Outcome discarded;
  Tracer off(false);
  const std::int64_t setup_start = now_ns();
  for (int i = 1;; ++i) {
    runner.reset();
    // The last set-up keeps its runner for the timed phase.
    const bool keep = i >= kMinSetups &&
                      now_ns() - setup_start >= kSetupSeconds * 1'000'000'000;
    const std::int64_t before = now_ns();
    for (int k = 0; k < kSetupSamples; ++k) speed.sample();
    const std::int64_t t0 = now_ns();
    runner = std::make_unique<Runner>(*w, args.seed, /*small=*/false,
                                      /*threads=*/1, keep ? out : discarded,
                                      keep ? tracer : off);
    runner->setup();
    for (std::uint32_t r = 0; r < kWarmupRounds; ++r) {
      runner->round(false, false, nullptr);
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    for (int k = 0; k < kSetupSamples; ++k) speed.sample();
    setup_raw_ms.push_back(ms);
    setup_ms.push_back(ms * speed.factor_over(before, now_ns()));
    if (keep) break;
  }

  // ---- timed phase --------------------------------------------------------
  Live& l = runner->live();
  const service::TelemetrySnapshot tel0 = l.svc->telemetry_snapshot();
  const auto stats0 = l.net->all_stats();
  const auto reg0 = sensornet::obs::Registry::global().snapshot();
  const auto sum0 = l.net->summary(true);
  service::TelemetrySnapshot tel1;
  std::vector<sensornet::sim::NodeCommStats> stats1;
  sensornet::obs::Snapshot reg1;
  sensornet::sim::CommSummary sum1;
  std::uint64_t window_answers = 0;
  double peak_mb = 0.0;
  Fnv1a window_sum;
  Timings timed(speed);
  // Past the window the traced run alternates six-round blocks (one full
  // EVERY 1..3 cycle) with spans on and off, at least two of each; their
  // wall time per round gives the tracing overhead.
  std::vector<double> spans_on_s, spans_off_s;
  const std::uint32_t window = w->window_rounds();
  const std::uint32_t min_rounds =
      std::max(window + (args.trace ? 24u : 0u), kMinRounds);
  const std::int64_t start = now_ns();
  for (std::uint32_t r = 0;; ++r) {
    const bool in_window = r < window;
    const bool spans_on = args.trace && (in_window || (r / 6) % 2 == 0);
    tracer.set_enabled(spans_on);
    const std::int64_t t0 = now_ns();
    runner->round(false, args.trace && in_window, &timed);
    const double dt = static_cast<double>(now_ns() - t0) / 1e9;
    if (args.trace && !in_window) {
      (spans_on ? spans_on_s : spans_off_s).push_back(dt);
    }
    if (r + 1 == window) {
      // Peak memory through set-up and the window: later rounds only grow
      // the benchmark's own sample vectors, by an amount that depends on speed.
      peak_mb = peak_rss_mb();
      tel1 = l.svc->telemetry_snapshot();
      stats1 = l.net->all_stats();
      reg1 = sensornet::obs::Registry::global().snapshot();
      sum1 = l.net->summary(true);
      window_answers = timed.answers;
      window_sum = runner->checksum();
    }
    if (r + 1 >= min_rounds &&
        static_cast<double>(now_ns() - start) / 1e9 >= args.seconds) {
      break;
    }
  }
  tracer.set_enabled(args.trace);

  const std::uint64_t window_bits = sum1.total_bits - sum0.total_bits;
  const std::uint64_t max_node_bits =
      sensornet::sim::window_summary(stats0, stats1, 0, true).max_node_bits;
  window_sum.mix_u64(window_bits);
  window_sum.mix_u64(max_node_bits);

  if (const std::string g = w->guard(tel0, tel1, l.mirror.size()); !g.empty()) {
    problems.push_back(std::string("layer-coverage guard (") + w->name() +
                       "): " + g);
  }

  // ---- determinism: same seed twice at 1 worker, once at nproc -----------
  const unsigned nproc = sensornet::resolve_thread_count(0);
  const SmallRun one = small_run(*w, args.seed, 1);
  const SmallRun again = small_run(*w, args.seed, 1);
  const SmallRun wide = small_run(*w, args.seed, nproc);
  if (one.failed != 0) problems.push_back("small replay had failures");
  if (!(one == again)) problems.push_back("small replay is not repeatable");
  if (!(one == wide)) {
    problems.push_back("answers or bits differ between 1 and " +
                       std::to_string(nproc) + " submit_batch workers");
  }

  // ---- metrics --------------------------------------------------------------
  std::vector<Metric> m;
  if (!args.trace) {
    // Host times at the nominal host speed (see HostSpeed).
    const auto corrected = [&](const std::vector<Timings::Call>& calls) {
      std::vector<double> ms;
      for (const Timings::Call& c : calls) {
        ms.push_back(c.ms * speed.factor_at(c.start_ns));
      }
      return ms;
    };
    const auto raw = [](const std::vector<Timings::Call>& calls) {
      std::vector<double> ms;
      for (const Timings::Call& c : calls) ms.push_back(c.ms);
      return ms;
    };
    const auto answers_per_s = [&](const std::vector<double>& epoch,
                                   const std::vector<double>& oneshot) {
      double service_ms = 0.0;
      for (const double x : epoch) service_ms += x;
      for (const double x : oneshot) service_ms += x;
      return ratio(static_cast<double>(timed.answers), service_ms / 1e3);
    };
    const std::vector<double> epoch_ms = corrected(timed.epochs);
    const std::vector<double> oneshot_ms = corrected(timed.oneshots);
    const std::vector<double> epoch_raw = raw(timed.epochs);
    const std::vector<double> oneshot_raw = raw(timed.oneshots);
    // The same host times before the correction, for the record.
    std::printf("# raw host times: kernel_us_median=%.6g answers_per_s=%.6g "
                "epoch_ms_p50=%.6g epoch_ms_p90=%.6g oneshot_ms_p50=%.6g "
                "oneshot_ms_p90=%.6g setup_s=%.6g\n",
                speed.median_us(), answers_per_s(epoch_raw, oneshot_raw),
                percentile(epoch_raw, 50), percentile(epoch_raw, 90),
                percentile(oneshot_raw, 50), percentile(oneshot_raw, 90),
                median(setup_raw_ms) / 1e3);
    m.push_back({"answers_per_s", answers_per_s(epoch_ms, oneshot_ms), "1/s"});
    m.push_back({"epoch_ms_p50", percentile(epoch_ms, 50), "ms"});
    m.push_back({"epoch_ms_p90", percentile(epoch_ms, 90), "ms"});
    m.push_back({"oneshot_ms_p50", percentile(oneshot_ms, 50), "ms"});
    m.push_back({"oneshot_ms_p90", percentile(oneshot_ms, 90), "ms"});
    m.push_back({"bits_per_answer",
                 ratio(static_cast<double>(window_bits),
                       static_cast<double>(window_answers)),
                 "bits"});
    m.push_back({"max_node_bits", static_cast<double>(max_node_bits), "bits"});
    m.push_back({"setup_s", median(setup_ms) / 1e3, "s"});
    m.push_back({"peak_rss_mb", peak_mb, "MiB"});
    m.push_back({"ok_share",
                 ratio(static_cast<double>(out.attempted - out.failed),
                       static_cast<double>(out.attempted)),
                 "share"});
  } else {
    const auto reg_delta = [&](const char* name) {
      return static_cast<double>(reg1.value(name) - reg0.value(name));
    };
    const auto d = [](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before);
    };
    m.push_back({"sim.deliveries", reg_delta("sim.deliveries"), "count"});
    m.push_back(
        {"sim.payload_bits", reg_delta("sim.payload_bits_sent"), "bits"});

    const auto& c0 = tel0.cache;
    const auto& c1 = tel1.cache;
    const double answers = d(tel1.totals.answers, tel0.totals.answers);
    m.push_back({"service.cache_hit_share",
                 ratio(d(tel1.totals.cache_hits, tel0.totals.cache_hits),
                       answers),
                 "share"});
    m.push_back(
        {"service.cache_miss_share",
         ratio(d(c1.misses + c1.expired + c1.absent,
                 c0.misses + c0.expired + c0.absent),
               d(c1.probes + c1.lookups, c0.probes + c0.lookups)),
         "share"});
    m.push_back({"service.edge_skip_ratio",
                 edge_skip_ratio(tel0, tel1, l.mirror.size()), "share"});
    m.push_back({"service.stats_waves",
                 d(tel1.plan.stats_waves, tel0.plan.stats_waves), "count"});
    const double mark_bits = d(tel1.mark_bits_on_air, tel0.mark_bits_on_air);
    m.push_back({"service.mark_bits_share",
                 ratio(mark_bits, static_cast<double>(window_bits)), "share"});
    double query_bits = 0.0;
    for (const auto& [id, qc] : tel1.queries) {
      const auto it = tel0.queries.find(id);
      query_bits += d(qc.bits_on_air,
                      it == tel0.queries.end() ? 0 : it->second.bits_on_air);
    }
    m.push_back({"service.attributed_bits_share",
                 ratio(query_bits + mark_bits,
                       static_cast<double>(window_bits)),
                 "share"});

    const auto& k0 = tel0.cube;
    const auto& k1 = tel1.cube;
    m.push_back(
        {"cube.refresh_waves", d(k1.refresh_waves, k0.refresh_waves), "count"});
    m.push_back(
        {"cube.residue_waves", d(k1.residue_waves, k0.residue_waves), "count"});
    const double cell_skip = d(k1.cell_edges_skipped, k0.cell_edges_skipped);
    m.push_back({"cube.cell_edge_skip_ratio",
                 ratio(cell_skip, cell_skip + d(k1.cell_edges_descended,
                                                k0.cell_edges_descended)),
                 "share"});
    const double pruned = d(k1.residue_edges_pruned, k0.residue_edges_pruned);
    m.push_back({"cube.residue_prune_ratio",
                 ratio(pruned, pruned + d(k1.residue_edges_descended,
                                          k0.residue_edges_descended)),
                 "share"});
    // Answers the service served from cube brackets, not bracket attempts.
    const double stale = d(tel1.totals.cube_stale_answers,
                           tel0.totals.cube_stale_answers);
    m.push_back({"cube.stale_serve_share",
                 ratio(stale, stale + d(tel1.totals.cube_fresh_answers,
                                        tel0.totals.cube_fresh_answers)),
                 "share"});

    probe_layers(*runner, args.seed, tracer, out, m);

    m.push_back(
        {"query.parse_us", median(tracer.self_ns("query.parse")) / 1e3, "us"});
    m.push_back(
        {"query.plan_us", median(tracer.self_ns("query.plan")) / 1e3, "us"});
    m.push_back({"query.plan_calls", static_cast<double>(runner->plan_calls()),
                 "count"});
    m.push_back(
        {"cube.probe_us", median(tracer.self_ns("cube.probe")) / 1e3, "us"});
    m.push_back({"sketch.est_rel_err_p50",
                 percentile(out.checker.rel_errors(), 50), "share"});
    m.push_back({"trace.overhead_share",
                 spans_on_s.empty() || spans_off_s.empty()
                     ? 0.0
                     : median(spans_on_s) / median(spans_off_s) - 1.0,
                 "share"});
  }

  if (args.trace) {
    // Per-layer host times at the run's nominal host speed (see HostSpeed).
    for (Metric& x : m) {
      if (x.unit == "ns" || x.unit == "us" || x.unit == "ms") {
        x.value *= speed.factor();
      }
    }
    m.push_back({"host.ref_kernel_us", speed.median_us(), "us"});
  }

  // Informational lines; the result is the last line.
  std::printf("# workload=%s seed=%llu rounds=%u window_checksum=%016llx "
              "window_bits=%llu window_answers=%llu spans=%zu\n",
              w->name(), static_cast<unsigned long long>(args.seed),
              runner->rounds_run(),
              static_cast<unsigned long long>(window_sum.h),
              static_cast<unsigned long long>(window_bits),
              static_cast<unsigned long long>(window_answers), tracer.size());
  for (const std::string& f : out.failures) {
    std::cerr << "perfbench: FAILED " << f << "\n";
  }
  for (const std::string& p : problems) {
    std::cerr << "perfbench: FAILED " << p << "\n";
  }
  if (args.trace && !args.spans.empty()) {
    std::ofstream os(args.spans);
    if (!os) {
      problems.push_back("cannot write spans to " + args.spans);
    } else {
      tracer.write_json(os);
    }
  }
  print_json(out.failed == 0 && problems.empty(), out, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
