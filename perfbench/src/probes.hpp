// Per-layer probes of the traced run: the benchmark times its own calls into
// each layer's public functions on the workload's current readings and
// queries. Calls that send messages run on a twin deployment (same grid,
// same readings), so the measured service's bit meters stay untouched.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs every probe after the timed phase and appends its metrics (sim,
/// codec, cube cost model when the live service has no cube, executor per
/// strategy, sketch codec and ODI sums, approximate vs exact selection).
/// Exact probe answers are checked against the oracle; randomized ones add
/// to the checker's relative errors.
void probe_layers(Runner& runner, std::uint64_t seed, Tracer& tracer,
                  Outcome& out, std::vector<Metric>& metrics);

}  // namespace perfbench
