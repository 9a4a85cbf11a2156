// Wire images of every aggregation spec: one fixed request and one fixed
// partial per spec, pinned to the bit. A codec refactor that changes a
// single bit on the air fails here before it reaches a bits benchmark.
#include "src/proto/aggregations.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace sensornet::proto {
namespace {

struct Image {
  std::size_t bits = 0;
  std::string hex;

  bool operator==(const Image&) const = default;
};

void PrintTo(const Image& im, std::ostream* os) {
  *os << im.bits << " bits, " << im.hex;
}

Image image_of(const BitWriter& w) {
  Image im;
  im.bits = w.bit_count();
  for (const std::uint8_t b : w.bytes()) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    im.hex += buf;
  }
  return im;
}

template <typename Spec>
Image request_image(const typename Spec::Request& req) {
  BitWriter w;
  Spec::encode_request(w, req);
  return image_of(w);
}

template <typename Spec>
Image partial_image(const typename Spec::Partial& p,
                    const typename Spec::Request& req) {
  BitWriter w;
  Spec::encode_partial(w, p, req);
  return image_of(w);
}

/// Pins the request's image and checks that it decodes to a request with
/// the same image, reading exactly the bits written.
template <typename Spec>
typename Spec::Request check_request(const typename Spec::Request& req,
                                     const Image& expected) {
  const Image im = request_image<Spec>(req);
  EXPECT_EQ(im, expected);
  BitWriter w;
  Spec::encode_request(w, req);
  BitReader r(w.bytes().data(), w.bit_count());
  const typename Spec::Request back = Spec::decode_request(r);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back.pred, req.pred);
  EXPECT_EQ(request_image<Spec>(back), im);
  return back;
}

/// Pins the partial's image and checks its round trip, reading exactly the
/// bits written.
template <typename Spec>
typename Spec::Partial check_partial(const typename Spec::Partial& p,
                                     const typename Spec::Request& req,
                                     const Image& expected) {
  const Image im = partial_image<Spec>(p, req);
  EXPECT_EQ(im, expected);
  BitWriter w;
  Spec::encode_partial(w, p, req);
  BitReader r(w.bytes().data(), w.bit_count());
  typename Spec::Partial back = Spec::decode_partial(r, req);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(partial_image<Spec>(back, req), im);
  return back;
}

TEST(WireImage, Count) {
  const CountAgg::Request req{Predicate::less_than(37)};
  check_request<CountAgg>(req, {16, "4415"});
  EXPECT_EQ(check_partial<CountAgg>(1234, req, {17, "166980"}), 1234u);
}

TEST(WireImage, Sum) {
  const SumAgg::Request req{Predicate::greater_equal(5)};
  check_request<SumAgg>(req, {11, "8aa0"});
  EXPECT_EQ(check_partial<SumAgg>(987654321, req, {38, "0f6b79a2c8"}),
            987654321u);
}

TEST(WireImage, Min) {
  const MinAgg::Request req{Predicate::less_than_half_units(75)};
  check_request<MinAgg>(req, {16, "4417"});
  EXPECT_EQ(check_partial<MinAgg>(Value{42}, req, {11, "9960"}), Value{42});
  EXPECT_EQ(check_partial<MinAgg>(std::nullopt, req, {1, "00"}),
            std::nullopt);
}

TEST(WireImage, Max) {
  const MaxAgg::Request req{Predicate::always_true()};
  check_request<MaxAgg>(req, {2, "00"});
  EXPECT_EQ(check_partial<MaxAgg>(Value{1000}, req, {17, "8af480"}),
            Value{1000});
  EXPECT_EQ(check_partial<MaxAgg>(std::nullopt, req, {1, "00"}),
            std::nullopt);
}

TEST(WireImage, LogLog) {
  LogLogAgg::Request req;
  req.pred = Predicate::greater_equal(3);
  req.registers = 16;
  req.width = 5;
  req.mode = LogLogAgg::Mode::kHashed;
  req.salt = 9;
  const LogLogAgg::Request back =
      check_request<LogLogAgg>(req, {42, "894a2e400240"});
  EXPECT_EQ(back.registers, 16u);
  EXPECT_EQ(back.width, 5u);
  EXPECT_EQ(back.mode, LogLogAgg::Mode::kHashed);
  EXPECT_EQ(back.salt, 9u);
  sketch::Hll hll =
      sketch::Hll::make_by_registers(
          16, sketch::HllOptions{.width = 5, .sparse = true})
          .value();
  for (std::uint64_t x = 1; x <= 5; ++x) hll.add(x, req.salt);
  check_partial<LogLogAgg>(hll, req, {71, "a7124394501a0e93c4"});
}

TEST(WireImage, Collect) {
  const CollectAgg::Request req{Predicate::less_than(100)};
  check_request<CollectAgg>(req, {17, "44c880"});
  const ValueSet xs{3, 3, 7, 20};
  EXPECT_EQ(check_partial<CollectAgg>(xs, req, {24, "6b2d26"}), xs);
}

TEST(WireImage, DistinctSet) {
  const DistinctSetAgg::Request req{Predicate::always_true()};
  check_request<DistinctSetAgg>(req, {2, "00"});
  const ValueSet xs{0, 4, 5, 90};
  EXPECT_EQ(check_partial<DistinctSetAgg>(xs, req, {23, "6d93aa"}), xs);
}

TEST(WireImage, Sample) {
  SampleAgg::Request req;
  req.pred = Predicate::greater_equal(2);
  req.prob_fp = SampleAgg::kProbOne / 4;
  const SampleAgg::Request back =
      check_request<SampleAgg>(req, {31, "88480000"});
  EXPECT_EQ(back.prob_fp, SampleAgg::kProbOne / 4);
  const ValueSet xs{2, 2, 9};
  EXPECT_EQ(check_partial<SampleAgg>(xs, req, {18, "62c800"}), xs);
}

}  // namespace
}  // namespace sensornet::proto
