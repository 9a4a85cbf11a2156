#include "src/obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

namespace {

// Bytes requested through global operator new; atomic because the suite
// also runs under ThreadSanitizer.
std::atomic<std::size_t> g_new_bytes{0};

}  // namespace

void* operator new(std::size_t n) {
  g_new_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sensornet::obs {
namespace {

#define REQUIRE_OBS() \
  if (!kObsEnabled) GTEST_SKIP() << "built with SENSORNET_OBS=OFF"

TEST(TraceRing, OverflowDropsOldestAndCounts) {
  REQUIRE_OBS();
  TraceRing ring(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.instant("e", "t", /*ts=*/i);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  // Oldest first, and the two oldest (ts 0, 1) are gone.
  EXPECT_EQ(events[0].ts, 2u);
  EXPECT_EQ(events[1].ts, 3u);
  EXPECT_EQ(events[2].ts, 4u);
}

TEST(TraceRing, ClearAndSetCapacityResetState) {
  REQUIRE_OBS();
  TraceRing ring(2);
  ring.instant("a", "t", 1);
  ring.instant("b", "t", 2);
  ring.instant("c", "t", 3);
  EXPECT_EQ(ring.dropped(), 1u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  ring.set_capacity(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(TraceRing, RecordsArgsAndSpanShape) {
  REQUIRE_OBS();
  TraceRing ring(8);
  ring.instant("send", "sim", 10, 0, "from", 3, "to", 4);
  ring.complete("span", "service", 20, 5, 2, "group", 1);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, 'i');
  EXPECT_STREQ(events[0].arg_name[0], "from");
  EXPECT_EQ(events[0].arg_val[1], 4u);
  EXPECT_EQ(events[1].ph, 'X');
  EXPECT_EQ(events[1].ts, 20u);
  EXPECT_EQ(events[1].dur, 5u);
  EXPECT_EQ(events[1].tid, 2u);
}

TEST(TraceRing, ExportsChromeTraceJson) {
  REQUIRE_OBS();
  TraceRing ring(4);
  ring.instant("send", "sim", 1, 0, "from", 0, "to", 1);
  ring.complete("epoch", "service", 0, 9);
  std::ostringstream os;
  ring.export_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEventCount\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"send\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"from\": 0, \"to\": 1}"),
            std::string::npos);
}

TEST(TraceRing, HoldsNoEventStorageUntilItRecords) {
  REQUIRE_OBS();
  const std::size_t before = g_new_bytes.load();
  TraceRing ring;
  EXPECT_LT(g_new_bytes.load() - before, std::size_t{64} << 10);
  EXPECT_EQ(ring.capacity(), TraceRing::kDefaultCapacity);
  EXPECT_EQ(ring.size(), 0u);

  const std::size_t before_first = g_new_bytes.load();
  ring.instant("first", "t", 1);
  EXPECT_EQ(g_new_bytes.load() - before_first,
            TraceRing::kDefaultCapacity * sizeof(TraceEvent));
  EXPECT_EQ(ring.size(), 1u);
}

TEST(TraceRing, DisabledByDefault) {
  // Holds in both configurations: the global ring must never record until
  // a tool opts in.
  EXPECT_FALSE(TraceRing::global().enabled());
}

}  // namespace
}  // namespace sensornet::obs
