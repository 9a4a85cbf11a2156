// Structured trace ring with a Chrome trace_event JSON exporter.
//
// Instrumented sites (message send/deliver, spanning-tree collection
// start/descend/serve-from-cache, query admit/answer, farm task run/steal)
// push fixed-size events into a bounded ring; export_chrome_json() writes
// the ring in the Chrome trace_event format, so any run opens directly in
// chrome://tracing or https://ui.perfetto.dev.
//
// Timestamps are caller-supplied, deliberately: simulation- and
// service-driven events stamp the *simulated* clock (sim::Network::now()
// ticks, rendered as microseconds), which makes a trace of a seeded run
// fully deterministic — tests/obs/trace_test.cpp pins a golden trace of a
// 4-node run byte-for-byte. Wall-clock sites (the trial farm) stamp
// wall_ts_us() instead; the two domains share a timeline, which is fine
// for a viewer and irrelevant to determinism (farm events are never part
// of a pinned trace).
//
// The ring is disabled by default and costs one predicted branch per site
// (enabled() is a relaxed atomic load; with SENSORNET_OBS=OFF it is a
// compile-time false and the sites fold away entirely). It also holds no
// event storage until it records: the constructor only notes the capacity,
// and the first event (or set_capacity) sizes the buffer, so a process that
// never traces never pays for the ring. When enabled, recording takes a
// mutex — the same one-lock design as obs::Registry; tracing is a diagnosis
// mode, not a steady-state one, and the coarse lock keeps the ring
// trivially ThreadSanitizer-clean.
// A full ring drops the OLDEST event (and counts the drop), so a trace
// always holds the most recent window of activity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/obs/metrics.hpp"  // kObsEnabled

namespace sensornet::obs {

/// One trace_event. Name/category/argument-name strings must be string
/// literals (or otherwise outlive the ring) — the ring stores pointers.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  char ph = 'i';            // 'i' instant, 'X' complete (ts + dur)
  std::uint64_t ts = 0;     // microseconds (simulated or wall, see header)
  std::uint64_t dur = 0;    // 'X' only
  std::uint32_t tid = 0;    // 0 = serial/main; farm workers use 1-based ids
  const char* arg_name[2] = {nullptr, nullptr};
  std::uint64_t arg_val[2] = {0, 0};
};

/// Microseconds since the first call — the wall-clock domain for events
/// with no simulated timestamp (trial-farm scheduling).
std::uint64_t wall_ts_us();

#if SENSORNET_OBS_ENABLED

class TraceRing {
 public:
  static TraceRing& global();

  explicit TraceRing(std::size_t capacity = kDefaultCapacity);
  ~TraceRing();
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Cheap gate for instrumentation sites: record only when enabled.
  bool enabled() const;
  void set_enabled(bool on);
  /// Drops all buffered events and resizes the ring (allocating it).
  void set_capacity(std::size_t capacity);
  void clear();

  void instant(const char* name, const char* cat, std::uint64_t ts,
               std::uint32_t tid = 0, const char* a0 = nullptr,
               std::uint64_t v0 = 0, const char* a1 = nullptr,
               std::uint64_t v1 = 0);
  /// A completed span: [ts, ts + dur].
  void complete(const char* name, const char* cat, std::uint64_t ts,
                std::uint64_t dur, std::uint32_t tid = 0,
                const char* a0 = nullptr, std::uint64_t v0 = 0,
                const char* a1 = nullptr, std::uint64_t v1 = 0);

  std::size_t size() const;
  /// The configured size, whether or not the buffer exists yet.
  std::size_t capacity() const;
  /// Events evicted because the ring was full (oldest-dropped).
  std::uint64_t dropped() const;
  /// Buffered events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}): open the file in
  /// chrome://tracing or Perfetto. Deterministic for a deterministic ring.
  void export_chrome_json(std::ostream& os) const;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

 private:
  struct Impl;
  Impl* impl_;
};

#else  // SENSORNET_OBS_ENABLED

class TraceRing {
 public:
  static TraceRing& global() {
    static TraceRing t;
    return t;
  }
  explicit TraceRing(std::size_t = kDefaultCapacity) {}
  /// Compile-time false: `if (ring.enabled())` sites fold away entirely.
  static constexpr bool enabled() { return false; }
  void set_enabled(bool) {}
  void set_capacity(std::size_t) {}
  void clear() {}
  void instant(const char*, const char*, std::uint64_t, std::uint32_t = 0,
               const char* = nullptr, std::uint64_t = 0,
               const char* = nullptr, std::uint64_t = 0) {}
  void complete(const char*, const char*, std::uint64_t, std::uint64_t,
                std::uint32_t = 0, const char* = nullptr, std::uint64_t = 0,
                const char* = nullptr, std::uint64_t = 0) {}
  std::size_t size() const { return 0; }
  std::size_t capacity() const { return 0; }
  std::uint64_t dropped() const { return 0; }
  std::vector<TraceEvent> events() const { return {}; }
  void export_chrome_json(std::ostream& os) const;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;
};

#endif  // SENSORNET_OBS_ENABLED

}  // namespace sensornet::obs
