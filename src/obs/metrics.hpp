// Metrics registry: counters, gauges and fixed-bucket histograms for the
// whole stack (src/obs is the base observability layer — every other
// library links it, so any layer can meter itself without new plumbing).
//
// Design constraints, in order:
//
//   1. Zero semantic footprint. Metrics never feed back into protocol or
//      scheduler decisions, so a run's delivery counts and checksums are
//      byte-identical whether the registry is compiled in, compiled out
//      (-DSENSORNET_OBS=OFF) or runtime-disabled (set_enabled(false)).
//   2. Writers batch. The built-in writers tally in plain members and
//      publish once per batch (sim::Network once per run(), the trial farm
//      once per for_each), so the registry sees a handful of updates per
//      wave, not one per message. One mutex guards every metric; each
//      update is a short critical section, and no storage exists before a
//      metric is registered.
//   3. Deterministic snapshots. A snapshot lists metrics in name order, and
//      a counter or bucket is a sum that does not depend on the order of
//      its updates, so two runs of a deterministic workload produce
//      byte-identical Snapshot::to_string() output at any worker count —
//      pinned by tests/obs/registry_test.cpp.
//
// Registration hands out a MetricId that names the metric's slot (and, for
// histograms, its bounds). Registering the same (name, kind, geometry)
// twice returns the same id, so call sites can re-register per run instead
// of caching globals.
//
// When the library is configured with -DSENSORNET_OBS=OFF every method
// below compiles to an inline no-op (see the #else half), so call sites
// stay unconditional and cost nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sensornet::obs {

#if SENSORNET_OBS_ENABLED
inline constexpr bool kObsEnabled = true;
#else
inline constexpr bool kObsEnabled = false;
#endif

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Everything an update needs, resolved once at registration.
struct MetricId {
  std::uint32_t cell = 0;  // the metric's index in registration order
  MetricKind kind = MetricKind::kCounter;
  /// Histograms only: pointer into registry-owned, immutable bound storage
  /// (stable until the registry dies; reset() keeps registrations).
  const std::vector<std::uint64_t>* bounds = nullptr;
};

struct HistogramSnapshot {
  /// Finite upper bounds, ascending; an overflow bucket (> last bound) is
  /// implied. Bucket i counts observations v with bounds[i-1] < v <=
  /// bounds[i] (first bucket: v <= bounds[0]).
  std::vector<std::uint64_t> upper_bounds;
  std::vector<std::uint64_t> counts;  // upper_bounds.size() + 1 entries
  std::uint64_t total() const;
};

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  // counter total or gauge value
  HistogramSnapshot hist;   // kHistogram only
};

/// A merged, name-ordered view of every registered metric.
struct Snapshot {
  std::vector<MetricSnapshot> metrics;

  const MetricSnapshot* find(std::string_view name) const;
  /// Counter/gauge value by name; 0 when absent (histograms: total()).
  std::uint64_t value(std::string_view name) const;
  /// Canonical text form, one line per metric — the determinism tests and
  /// bench reports compare/emit this.
  std::string to_string() const;
  void write_json(std::ostream& os, int indent) const;
};

#if SENSORNET_OBS_ENABLED

class Registry {
 public:
  /// The process-wide registry every built-in instrumentation site uses.
  static Registry& global();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // ---- registration (cold; mutex-guarded; idempotent per name) ----------
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId histogram(std::string_view name,
                     std::span<const std::uint64_t> upper_bounds);

  // ---- updates (one short critical section; no-ops while disabled) ------
  void add(MetricId id, std::uint64_t delta = 1);      // counter
  void gauge_set(MetricId id, std::uint64_t value);    // last write wins
  void gauge_add(MetricId id, std::uint64_t delta);
  void gauge_max(MetricId id, std::uint64_t value);    // high-water mark
  void observe(MetricId id, std::uint64_t value);      // histogram

  /// Runtime kill switch: while disabled, the hot ops return without
  /// touching any cell. Used by the bench overhead lane to measure the
  /// instrumented-but-idle cost; compile with SENSORNET_OBS=OFF to remove
  /// the instructions entirely.
  void set_enabled(bool on);
  bool enabled() const;

  /// Every metric's current value, in name order.
  Snapshot snapshot() const;
  /// Zeroes every cell; registrations (names, ids, bounds) survive.
  void reset();

 private:
  struct Impl;
  Impl* impl_;
};

#else  // SENSORNET_OBS_ENABLED

/// Compiled-out registry: same API, every member an inline no-op the
/// optimizer deletes. Call sites need no #ifdefs.
class Registry {
 public:
  static Registry& global() {
    static Registry r;
    return r;
  }
  MetricId counter(std::string_view) { return {}; }
  MetricId gauge(std::string_view) { return {}; }
  MetricId histogram(std::string_view, std::span<const std::uint64_t>) {
    return {};
  }
  void add(MetricId, std::uint64_t = 1) {}
  void gauge_set(MetricId, std::uint64_t) {}
  void gauge_add(MetricId, std::uint64_t) {}
  void gauge_max(MetricId, std::uint64_t) {}
  void observe(MetricId, std::uint64_t) {}
  void set_enabled(bool) {}
  bool enabled() const { return false; }
  Snapshot snapshot() const { return {}; }
  void reset() {}
};

#endif  // SENSORNET_OBS_ENABLED

}  // namespace sensornet::obs
