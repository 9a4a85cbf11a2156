#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory_resource>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "src/common/mathutil.hpp"

namespace perfbench {

std::string QuerySpec::text() const {
  std::ostringstream os;
  os << "SELECT " << sensornet::query::agg_name(agg) << "(v";
  if (agg == AggregateKind::kQuantile) os << ", " << phi;
  os << ") FROM s";
  if (!whole_domain()) os << " WHERE v BETWEEN " << lo << " AND " << hi;
  if (every != 0) os << " EVERY " << every << " EPOCHS";
  if (error > 0.0) os << " ERROR " << error;
  return os.str();
}

Truth oracle(const std::vector<Value>& mirror, const QuerySpec& spec) {
  std::vector<Value> in;
  in.reserve(mirror.size());
  for (const Value v : mirror) {
    if (v >= spec.lo && v <= spec.hi) in.push_back(v);
  }
  const auto n = static_cast<std::int64_t>(in.size());
  Truth t;
  switch (spec.agg) {
    case AggregateKind::kCount:
      t.value = static_cast<double>(n);
      return t;
    case AggregateKind::kSum:
    case AggregateKind::kAvg: {
      std::uint64_t sum = 0;
      for (const Value v : in) sum += static_cast<std::uint64_t>(v);
      if (spec.agg == AggregateKind::kSum) {
        t.value = static_cast<double>(sum);
      } else if (n == 0) {
        t.defined = false;
      } else {
        t.value = static_cast<double>(sum) / static_cast<double>(n);
      }
      return t;
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      if (n == 0) {
        t.defined = false;
      } else {
        t.value = static_cast<double>(
            spec.agg == AggregateKind::kMin
                ? *std::min_element(in.begin(), in.end())
                : *std::max_element(in.begin(), in.end()));
      }
      return t;
    case AggregateKind::kMedian:
    case AggregateKind::kQuantile: {
      if (n == 0) {
        t.defined = false;
        return t;
      }
      // The executor's rank: OS(X, phi * N) with 2k rounded and clamped.
      const double phi = spec.agg == AggregateKind::kQuantile ? spec.phi : 0.5;
      auto twice_k = static_cast<std::int64_t>(
          std::llround(2.0 * phi * static_cast<double>(n)));
      twice_k = std::clamp<std::int64_t>(twice_k, 2, 2 * n);
      t.value = static_cast<double>(
          sensornet::reference_order_statistic(std::move(in), twice_k));
      return t;
    }
    case AggregateKind::kCountDistinct: {
      std::sort(in.begin(), in.end());
      t.value = static_cast<double>(
          std::unique(in.begin(), in.end()) - in.begin());
      return t;
    }
  }
  return t;
}

bool AnswerChecker::check(const QuerySpec& spec,
                          const sensornet::service::Answer& a,
                          const std::vector<Value>& mirror, std::string* why) {
  const Truth t = oracle(mirror, spec);
  const auto wrong = [&] {
    std::ostringstream os;
    os << spec.text() << " @epoch " << a.epoch << ": answer " << a.value
       << " (bound " << a.error_bound << (a.exact ? ", exact" : "")
       << (a.from_cache ? ", cached" : "") << ") vs oracle "
       << (t.defined ? std::to_string(t.value) : std::string("undefined"));
    *why = os.str();
    return false;
  };
  if (a.empty_selection || !t.defined) {
    // An undefined aggregate must be reported as such by exact answers;
    // a bracket over a region that drifted empty has nothing to contain.
    const bool ok = a.empty_selection == !t.defined ||
                    (!a.exact && !t.defined);
    return ok || wrong();
  }
  if (a.exact) {
    return (a.value == t.value && a.error_bound == 0.0) || wrong();
  }
  if (a.from_cache || a.error_bound > 0.0) {
    const double slack = 1e-9 * std::max(1.0, std::abs(t.value));
    return std::abs(a.value - t.value) <= a.error_bound + slack || wrong();
  }
  add_estimate(a.value, t.value);
  return true;
}

void AnswerChecker::add_estimate(double value, double truth) {
  rel_errors_.push_back(std::abs(value - truth) /
                        std::max(1.0, std::abs(truth)));
}

void Fnv1a::mix_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
}

void Fnv1a::mix_answer(const sensornet::service::Answer& a) {
  mix_u64(a.id);
  mix_u64(a.epoch);
  mix_u64(std::bit_cast<std::uint64_t>(a.value));
  mix_u64(std::bit_cast<std::uint64_t>(a.error_bound));
  mix_u64((a.exact ? 1u : 0u) | (a.from_cache ? 2u : 0u) |
          (a.empty_selection ? 4u : 0u));
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
// Keeps the kernel's result observable so the optimizer cannot drop it.
volatile std::uint64_t g_kernel_sink = 0;

/// Bytes one kernel pass may allocate; a pass needs under 400 KiB.
constexpr std::size_t kKernelArenaBytes = std::size_t{2} << 20;
}  // namespace

HostSpeed::HostSpeed() : origin_ns_(now_ns()), arena_(kKernelArenaBytes) {}

void HostSpeed::maybe_sample() {
  if (now_ns() - last_ns_ >= kEveryNs) sample();
}

void HostSpeed::sample() {
  const std::int64_t t0 = now_ns();
  {
    // A pool over the arena recycles freed blocks the way malloc does;
    // overflowing the arena throws rather than falling back to the heap.
    std::pmr::monotonic_buffer_resource arena(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::unordered_map<std::uint32_t, std::uint64_t> map(&pool);
    std::pmr::vector<std::pmr::vector<std::uint8_t>> queue(&pool);
    std::uint64_t h = 0;
    for (std::uint32_t k = 0; k < 20000; ++k) {
      map[(k * 2654435761u) % 4096] += k;
      if (k % 4 == 0) queue.emplace_back(16 + k % 32);
      if (queue.size() > 64) {
        h += queue.front().size();
        queue.erase(queue.begin());
      }
    }
    for (const auto& [key, value] : map) h += key ^ value;
    g_kernel_sink = h;
  }
  last_ns_ = now_ns();
  samples_.push_back({t0, static_cast<double>(last_ns_ - t0) / 1e3});
}

double HostSpeed::median_us() const {
  std::vector<double> us;
  for (const Sample& s : samples_) us.push_back(s.us);
  return percentile(std::move(us), 50.0);
}

double HostSpeed::factor() const {
  return samples_.empty() ? 1.0 : kNominalUs / median_us();
}

double HostSpeed::factor_at(std::int64_t t_ns) const {
  const std::int64_t block = (t_ns - origin_ns_) / kBlockNs;
  return factor_over(origin_ns_ + block * kBlockNs,
                     origin_ns_ + (block + 1) * kBlockNs - 1);
}

double HostSpeed::factor_over(std::int64_t from_ns, std::int64_t to_ns) const {
  std::vector<double> us;
  for (const Sample& s : samples_) {
    if (s.t_ns >= from_ns && s.t_ns <= to_ns) us.push_back(s.us);
  }
  if (us.size() < 5) return factor();
  return kNominalUs / percentile(std::move(us), 50.0);
}

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, open_});
  open_ = index;
  return Scope(this, index);
}

void Tracer::close(std::int32_t index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  open_ = s.parent;
}

std::vector<double> Tracer::self_ns(std::string_view name) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(static_cast<double>(spans_[i].end_ns -
                                        spans_[i].start_ns) -
                    child_ns[i]);
    }
  }
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns - t0) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"index\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
