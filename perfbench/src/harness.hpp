// Shared pieces of the query-service benchmark: the query specs the
// workloads generate, the exact oracle every answer is checked against, the
// answer-stream checksum, sample statistics, and the span recorder of the
// traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/types.hpp"
#include "src/query/aggregate.hpp"
#include "src/service/engine.hpp"

namespace perfbench {

using sensornet::NodeId;
using sensornet::Value;
using sensornet::query::AggregateKind;

/// Readings live in [0, kBound]; every workload declares this bound to the
/// service.
constexpr Value kBound = 1000;

/// One generated query. The service only ever sees text(); the benchmark keeps
/// the spec to recompute the exact answer from its mirror of the readings.
struct QuerySpec {
  AggregateKind agg = AggregateKind::kCount;
  Value lo = 0;
  Value hi = kBound;
  double phi = 0.5;          // QUANTILE only
  double error = 0.0;        // 0 = no ERROR clause
  std::uint32_t every = 0;   // 0 = one-shot

  bool whole_domain() const { return lo == 0 && hi == kBound; }
  std::string text() const;
};

/// The exact aggregate over the mirror. `defined` is false when the region
/// is empty and the aggregate has no value there (MIN/MAX/AVG/selection).
struct Truth {
  double value = 0.0;
  bool defined = true;
};
Truth oracle(const std::vector<Value>& mirror, const QuerySpec& spec);

/// Classifies and checks one answer against the oracle:
///   exact      -> must equal the oracle bit for bit;
///   bracketed  -> (cached, or a nonzero bound) |value - truth| <= bound;
///   estimate   -> randomized; its relative error is recorded, never failed.
class AnswerChecker {
 public:
  /// Returns false (and fills `why`) when the answer is wrong.
  bool check(const QuerySpec& spec, const sensornet::service::Answer& a,
             const std::vector<Value>& mirror, std::string* why);

  const std::vector<double>& rel_errors() const { return rel_errors_; }
  void add_estimate(double value, double truth);

 private:
  std::vector<double> rel_errors_;
};

/// FNV-1a over the answer stream (ids, epochs, values, bounds, flags) and
/// bit totals.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix_u64(std::uint64_t v);
  void mix_answer(const sensornet::service::Answer& a);
};

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples; 0 for
/// an empty sample.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Host nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Host-speed reference: a fixed hash-map and small-allocation kernel owned
/// by the benchmark, independent of the program under test. On a shared
/// host the program's speed drifts by tens of percent within seconds, and
/// a kernel of this kind drifts with it (correlation 0.8-0.99 over 1-15 s
/// blocks on a shared 4-vCPU VM, where a pure compute loop did not follow),
/// so host times are reported at a nominal speed: a call that started in
/// block b (kBlockNs of host time) is scaled by
///   kNominalUs / median(kernel us sampled in block b),
/// falling back to the run's median when the block holds too few samples.
/// The kernel allocates only from an arena reserved at construction, never
/// from the process heap, so the program's allocator state cannot slow it
/// and a heap regression of the program is not divided out.
class HostSpeed {
 public:
  static constexpr double kNominalUs = 1000.0;
  static constexpr std::int64_t kBlockNs = 1'000'000'000;
  static constexpr std::int64_t kEveryNs = 25'000'000;

  HostSpeed();

  /// Times one kernel pass when kEveryNs has passed since the last one.
  void maybe_sample();
  void sample();
  /// Median kernel time of the run so far, in microseconds.
  double median_us() const;
  /// Scale for the whole run (1 without samples).
  double factor() const;
  /// Scale for a call that started at host time `t_ns`.
  double factor_at(std::int64_t t_ns) const;
  /// Scale from the samples taken within [from_ns, to_ns].
  double factor_over(std::int64_t from_ns, std::int64_t to_ns) const;

 private:
  struct Sample {
    std::int64_t t_ns = 0;
    double us = 0.0;
  };
  std::int64_t origin_ns_;
  std::int64_t last_ns_ = 0;
  std::vector<Sample> samples_;
  std::vector<std::byte> arena_;
};

/// In-memory span recorder of the traced run. A span records its name,
/// host start and end, and the span open when it began (its parent), so a
/// layer's self time is its duration minus its children's. Disabled, every
/// call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Toggle between spans (never while one is open).
  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer* t, std::int32_t index) : t_(t), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close(index_);
    }

   private:
    Tracer* t_;
    std::int32_t index_;
  };

  /// Opens a span that closes when the returned scope dies. `name` must be
  /// a string literal.
  [[nodiscard]] Scope span(const char* name);

  /// Self times (ns) of every closed span named `name`, in record order.
  std::vector<double> self_ns(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace_event JSON ('X' events, host microseconds; each event's
  /// args carry its index and parent index).
  void write_json(std::ostream& os) const;

 private:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };
  void close(std::int32_t index);

  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

}  // namespace perfbench
