#include "src/obs/trace.hpp"

#include <chrono>
#include <ostream>

namespace sensornet::obs {

std::uint64_t wall_ts_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point anchor = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            anchor)
          .count());
}

namespace {

void write_event_json(std::ostream& os, const TraceEvent& e) {
  os << "    {\"name\": \"" << e.name << "\", \"cat\": \"" << e.cat
     << "\", \"ph\": \"" << e.ph << "\", \"ts\": " << e.ts;
  if (e.ph == 'X') os << ", \"dur\": " << e.dur;
  os << ", \"pid\": 0, \"tid\": " << e.tid;
  if (e.arg_name[0] != nullptr) {
    os << ", \"args\": {\"" << e.arg_name[0] << "\": " << e.arg_val[0];
    if (e.arg_name[1] != nullptr) {
      os << ", \"" << e.arg_name[1] << "\": " << e.arg_val[1];
    }
    os << "}";
  }
  os << "}";
}

void write_trace_json(std::ostream& os, const std::vector<TraceEvent>& events,
                      std::uint64_t dropped) {
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"droppedEventCount\": "
     << dropped << ",\n  \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    write_event_json(os, events[i]);
    os << (i + 1 < events.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

}  // namespace sensornet::obs

#if SENSORNET_OBS_ENABLED

#include <atomic>
#include <mutex>

namespace sensornet::obs {

struct TraceRing::Impl {
  mutable std::mutex mu;
  std::vector<TraceEvent> ring;  // empty until the first event or resize
  std::size_t capacity;
  std::size_t head = 0;   // next write position
  std::size_t count = 0;  // events currently buffered (<= capacity)
  std::uint64_t dropped = 0;
  std::atomic<bool> enabled{false};

  explicit Impl(std::size_t cap) : capacity(cap == 0 ? 1 : cap) {}

  void push(const TraceEvent& e) {
    std::lock_guard<std::mutex> lock(mu);
    if (ring.empty()) ring.resize(capacity);
    if (count == capacity) {
      ++dropped;  // overwriting the oldest slot
    } else {
      ++count;
    }
    ring[head] = e;
    head = (head + 1) % capacity;
  }
};

TraceRing::TraceRing(std::size_t capacity) : impl_(new Impl(capacity)) {}
TraceRing::~TraceRing() { delete impl_; }

TraceRing& TraceRing::global() {
  // Leaked for the same reason as Registry::global().
  static TraceRing* t = new TraceRing;
  return *t;
}

bool TraceRing::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void TraceRing::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

void TraceRing::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->capacity = capacity == 0 ? 1 : capacity;
  impl_->ring.assign(impl_->capacity, TraceEvent{});
  impl_->head = 0;
  impl_->count = 0;
  impl_->dropped = 0;
}

void TraceRing::clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->head = 0;
  impl_->count = 0;
  impl_->dropped = 0;
}

void TraceRing::instant(const char* name, const char* cat, std::uint64_t ts,
                        std::uint32_t tid, const char* a0, std::uint64_t v0,
                        const char* a1, std::uint64_t v1) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.ts = ts;
  e.tid = tid;
  e.arg_name[0] = a0;
  e.arg_val[0] = v0;
  e.arg_name[1] = a1;
  e.arg_val[1] = v1;
  impl_->push(e);
}

void TraceRing::complete(const char* name, const char* cat, std::uint64_t ts,
                         std::uint64_t dur, std::uint32_t tid, const char* a0,
                         std::uint64_t v0, const char* a1, std::uint64_t v1) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'X';
  e.ts = ts;
  e.dur = dur;
  e.tid = tid;
  e.arg_name[0] = a0;
  e.arg_val[0] = v0;
  e.arg_name[1] = a1;
  e.arg_val[1] = v1;
  impl_->push(e);
}

std::size_t TraceRing::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->count;
}

std::size_t TraceRing::capacity() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->capacity;
}

std::uint64_t TraceRing::dropped() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->dropped;
}

std::vector<TraceEvent> TraceRing::events() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<TraceEvent> out;
  out.reserve(impl_->count);
  // Oldest event sits at head when the ring has wrapped, at 0 otherwise.
  const std::size_t start =
      impl_->count == impl_->capacity ? impl_->head : 0;
  for (std::size_t i = 0; i < impl_->count; ++i) {
    out.push_back(impl_->ring[(start + i) % impl_->capacity]);
  }
  return out;
}

void TraceRing::export_chrome_json(std::ostream& os) const {
  write_trace_json(os, events(), dropped());
}

}  // namespace sensornet::obs

#else  // SENSORNET_OBS_ENABLED

namespace sensornet::obs {

void TraceRing::export_chrome_json(std::ostream& os) const {
  write_trace_json(os, {}, 0);
}

}  // namespace sensornet::obs

#endif  // SENSORNET_OBS_ENABLED
