#include "src/obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sensornet::obs {

std::uint64_t HistogramSnapshot::total() const {
  std::uint64_t t = 0;
  for (const std::uint64_t c : counts) t += c;
  return t;
}

const MetricSnapshot* Snapshot::find(std::string_view name) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::uint64_t Snapshot::value(std::string_view name) const {
  const MetricSnapshot* m = find(name);
  if (m == nullptr) return 0;
  return m->kind == MetricKind::kHistogram ? m->hist.total() : m->value;
}

namespace {

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::string Snapshot::to_string() const {
  std::ostringstream os;
  for (const MetricSnapshot& m : metrics) {
    os << m.name << ' ' << kind_name(m.kind) << ' ';
    if (m.kind == MetricKind::kHistogram) {
      os << m.hist.total() << " [";
      for (std::size_t i = 0; i < m.hist.counts.size(); ++i) {
        if (i > 0) os << ' ';
        if (i < m.hist.upper_bounds.size()) {
          os << "le" << m.hist.upper_bounds[i] << ':';
        } else {
          os << "inf:";
        }
        os << m.hist.counts[i];
      }
      os << ']';
    } else {
      os << m.value;
    }
    os << '\n';
  }
  return os.str();
}

void Snapshot::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSnapshot& m = metrics[i];
    os << pad << "  \"" << m.name << "\": ";
    if (m.kind == MetricKind::kHistogram) {
      os << "{\"total\": " << m.hist.total() << ", \"buckets\": [";
      for (std::size_t b = 0; b < m.hist.counts.size(); ++b) {
        if (b > 0) os << ", ";
        os << m.hist.counts[b];
      }
      os << "]}";
    } else {
      os << m.value;
    }
    os << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  os << pad << "}";
}

}  // namespace sensornet::obs

#if SENSORNET_OBS_ENABLED

#include <atomic>
#include <deque>
#include <map>
#include <mutex>

namespace sensornet::obs {

struct Registry::Impl {
  struct Metric {
    MetricKind kind = MetricKind::kCounter;
    std::vector<std::uint64_t> bounds;  // histogram only; address-stable
    std::vector<std::uint64_t> cells;   // one cell, or bounds + 1 buckets
  };

  mutable std::mutex mu;       // guards metrics, by_name and every cell
  std::deque<Metric> metrics;  // deque: Metric::bounds stays put
  std::map<std::string, std::uint32_t, std::less<>> by_name;
  std::atomic<bool> enabled{true};

  MetricId do_register(std::string_view name, MetricKind kind,
                       std::span<const std::uint64_t> bounds) {
    std::lock_guard<std::mutex> lock(mu);
    const bool hist = kind == MetricKind::kHistogram;
    if (const auto it = by_name.find(name); it != by_name.end()) {
      const Metric& m = metrics[it->second];
      if (m.kind != kind ||
          (hist && !std::equal(bounds.begin(), bounds.end(),
                               m.bounds.begin(), m.bounds.end()))) {
        throw std::logic_error("obs::Registry: metric '" + it->first +
                               "' re-registered with a different shape");
      }
      return MetricId{it->second, kind, hist ? &m.bounds : nullptr};
    }
    if (!std::is_sorted(bounds.begin(), bounds.end()) ||
        std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
      throw std::invalid_argument(
          "obs::Registry: histogram bounds must be strictly ascending");
    }
    const auto index = static_cast<std::uint32_t>(metrics.size());
    Metric& m = metrics.emplace_back();
    m.kind = kind;
    m.bounds.assign(bounds.begin(), bounds.end());
    m.cells.assign(hist ? bounds.size() + 1 : 1, 0);
    by_name.emplace(std::string(name), index);
    return MetricId{index, kind, hist ? &m.bounds : nullptr};
  }

  /// Applies `op` to cell `c` of metric `id` under the lock, unless the
  /// registry is disabled.
  template <typename Op>
  void update(MetricId id, std::size_t c, Op op) {
    if (!enabled.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(mu);
    op(metrics[id.cell].cells[c]);
  }
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
  // Leaked intentionally: instrumentation in static destructors (and in
  // threads outliving main) must never touch a destroyed registry.
  static Registry* r = new Registry;
  return *r;
}

MetricId Registry::counter(std::string_view name) {
  return impl_->do_register(name, MetricKind::kCounter, {});
}

MetricId Registry::gauge(std::string_view name) {
  return impl_->do_register(name, MetricKind::kGauge, {});
}

MetricId Registry::histogram(std::string_view name,
                             std::span<const std::uint64_t> upper_bounds) {
  return impl_->do_register(name, MetricKind::kHistogram, upper_bounds);
}

void Registry::add(MetricId id, std::uint64_t delta) {
  impl_->update(id, 0, [delta](std::uint64_t& c) { c += delta; });
}

void Registry::gauge_set(MetricId id, std::uint64_t value) {
  impl_->update(id, 0, [value](std::uint64_t& c) { c = value; });
}

void Registry::gauge_add(MetricId id, std::uint64_t delta) { add(id, delta); }

void Registry::gauge_max(MetricId id, std::uint64_t value) {
  impl_->update(id, 0, [value](std::uint64_t& c) { c = std::max(c, value); });
}

void Registry::observe(MetricId id, std::uint64_t value) {
  // Bounds never change after registration, so the bucket is found unlocked.
  const std::vector<std::uint64_t>& bounds = *id.bounds;
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  impl_->update(id, bucket, [](std::uint64_t& c) { ++c; });
}

void Registry::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

bool Registry::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Snapshot out;
  out.metrics.reserve(impl_->by_name.size());
  for (const auto& [name, index] : impl_->by_name) {  // name order
    const Impl::Metric& metric = impl_->metrics[index];
    MetricSnapshot& m = out.metrics.emplace_back();
    m.name = name;
    m.kind = metric.kind;
    if (metric.kind == MetricKind::kHistogram) {
      m.hist.upper_bounds = metric.bounds;
      m.hist.counts = metric.cells;
    } else {
      m.value = metric.cells[0];
    }
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (Impl::Metric& m : impl_->metrics) {
    std::fill(m.cells.begin(), m.cells.end(), 0);
  }
}

}  // namespace sensornet::obs

#endif  // SENSORNET_OBS_ENABLED
