// Shared plumbing of the continuous-query lane benches (exp_query_service,
// exp_cube): the answer-stream checksum, continuous subscribers and their
// query text, the exact aggregate over a value mirror, the command line, and
// the worker-count determinism rows of the report.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/query/aggregate.hpp"
#include "src/service/engine.hpp"

namespace sensornet::bench {

/// The lanes' value domain is [0, kBound].
constexpr Value kBound = 1000;

/// FNV-1a over the answer stream: ids, epochs, values, bounds and flags.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void mix_u64(std::uint64_t v) { mix_bytes(&v, sizeof v); }
  void mix_answer(const service::Answer& a) {
    mix_u64(a.id);
    mix_u64(a.epoch);
    mix_u64(std::bit_cast<std::uint64_t>(a.value));
    mix_u64(std::bit_cast<std::uint64_t>(a.error_bound));
    mix_u64((a.exact ? 1u : 0u) | (a.from_cache ? 2u : 0u) |
            (a.empty_selection ? 4u : 0u));
  }
};

/// One continuous subscriber of a lane.
struct ContinuousSpec {
  query::AggregateKind agg;  // a stats aggregate
  Value lo, hi;              // region (0..kBound == whole domain)
  unsigned every;
  double error;  // 0 = exact subscriber
};

inline std::string spec_text(const ContinuousSpec& s) {
  std::ostringstream os;
  os << "SELECT " << query::agg_name(s.agg) << "(v) FROM s";
  if (s.lo != 0 || s.hi != kBound) {
    os << " WHERE v BETWEEN " << s.lo << " AND " << s.hi;
  }
  os << " EVERY " << s.every << " EPOCHS";
  if (s.error > 0.0) os << " ERROR " << s.error;
  return os.str();
}

/// The exact aggregate over the mirror; `empty` when the region selects
/// nothing (AVG, MIN and MAX then read 0).
inline double exact_over(const std::vector<Value>& mirror,
                         const ContinuousSpec& s, bool& empty) {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  Value mn = kBound, mx = 0;
  for (Value v : mirror) {
    if (v < s.lo || v > s.hi) continue;
    ++count;
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  empty = count == 0;
  switch (s.agg) {
    case query::AggregateKind::kCount: return static_cast<double>(count);
    case query::AggregateKind::kSum: return static_cast<double>(sum);
    case query::AggregateKind::kAvg:
      return empty ? 0.0 : static_cast<double>(sum) / count;
    case query::AggregateKind::kMin:
      return empty ? 0.0 : static_cast<double>(mn);
    case query::AggregateKind::kMax:
      return empty ? 0.0 : static_cast<double>(mx);
    default: return 0.0;
  }
}

/// True, after reporting it, when `a` lies outside its deterministic bound
/// of the mirror's truth (an empty selection is not checked).
inline bool violates_bound(const std::vector<Value>& mirror,
                           const ContinuousSpec& spec,
                           const service::Answer& a) {
  bool empty = false;
  const double truth = exact_over(mirror, spec, empty);
  if (empty || std::abs(a.value - truth) <= a.error_bound + 1e-9) {
    return false;
  }
  std::cerr << "bound violation: id=" << a.id << " epoch=" << a.epoch
            << " value=" << a.value << " truth=" << truth
            << " bound=" << a.error_bound << "\n";
  return true;
}

/// Admits the lane's subscribers in one batch and mixes each id into `sum`;
/// a refused admission is fatal. The ids come back in spec order.
inline std::vector<service::QueryId> admit_specs(
    service::QueryService& svc, const std::vector<ContinuousSpec>& specs,
    Fnv1a& sum) {
  std::vector<std::string> texts;
  for (const auto& spec : specs) texts.push_back(spec_text(spec));
  std::vector<service::QueryId> ids;
  for (const auto& r : svc.submit_batch(texts)) {
    if (!r.ok()) {
      std::cerr << "FATAL: lane admission failed: " << r.error() << "\n";
      std::exit(1);
    }
    ids.push_back(r.value().id);
    sum.mix_u64(r.value().id);
  }
  return ids;
}

/// Epoch `e`'s update batch: a rotating quarter of the nodes drifts by 3
/// (clamped to the domain), so incremental waves always have clean subtrees
/// to skip; the mirror follows.
inline std::vector<service::SensorUpdate> quarter_drift(
    std::vector<Value>& mirror, std::uint32_t e) {
  std::vector<service::SensorUpdate> batch;
  for (NodeId u = e % 4; u < mirror.size(); u += 4) {
    const Value delta = (u + e) % 2 == 0 ? 3 : -3;
    const Value v = std::clamp<Value>(mirror[u] + delta, 0, kBound);
    mirror[u] = v;
    batch.push_back(service::SensorUpdate{u, v});
  }
  return batch;
}

struct LaneCli {
  bool quick = false;
  std::string out;
  std::string trace;  // empty: no trace export
  unsigned threads = 0;
};

/// Parses [--quick] [--out PATH] [--threads N], plus [--trace PATH] when
/// `with_trace`; anything else prints `usage` and exits with status 2.
inline LaneCli parse_cli(int argc, char** argv, const char* default_out,
                         bool with_trace, const char* usage) {
  LaneCli cli;
  cli.out = default_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      cli.quick = true;
    } else if (arg == "--out" && has_value) {
      cli.out = argv[++i];
    } else if (with_trace && arg == "--trace" && has_value) {
      cli.trace = argv[++i];
    } else if (arg == "--threads" && has_value) {
      cli.threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << usage;
      std::exit(2);
    }
  }
  return cli;
}

struct DeterminismRow {
  unsigned threads = 0;
  std::uint64_t checksum = 0;
};

/// The lane's answer-stream checksum at each worker count in `counts`,
/// printed as it is taken: `base` is the run at `resolved` workers, and
/// `replay(t)` runs the lane again at t workers.
template <typename Replay>
std::vector<DeterminismRow> determinism_rows(
    const std::vector<unsigned>& counts, unsigned resolved,
    std::uint64_t base, Replay replay) {
  std::vector<DeterminismRow> det;
  for (const unsigned t : counts) {
    det.push_back({t, t == resolved ? base : replay(t)});
    std::cout << "  threads=" << t << " checksum=" << std::hex
              << det.back().checksum << std::dec << "\n";
  }
  return det;
}

inline bool deterministic(const std::vector<DeterminismRow>& det) {
  return std::all_of(det.begin(), det.end(), [&](const DeterminismRow& r) {
    return r.checksum == det.front().checksum;
  });
}

/// The report's "determinism" array.
inline void write_determinism(std::ostream& os,
                              const std::vector<DeterminismRow>& det) {
  os << "  \"determinism\": [\n";
  for (std::size_t i = 0; i < det.size(); ++i) {
    os << "    {\"threads\": " << det[i].threads << ", \"checksum\": \""
       << std::hex << det[i].checksum << std::dec << "\"}"
       << (i + 1 < det.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
}

}  // namespace sensornet::bench
