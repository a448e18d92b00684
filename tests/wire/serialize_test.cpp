#include "wire/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"

namespace gendpr::wire {
namespace {

using common::Bytes;

TEST(WriterTest, FixedWidthLittleEndian) {
  Writer w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090a0b0c0d0e0fULL);
  const Bytes expected = {0x01, 0x03, 0x02, 0x07, 0x06, 0x05, 0x04,
                          0x0f, 0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08};
  EXPECT_EQ(w.buffer(), expected);
}

TEST(WriterTest, VarintEncodings) {
  {
    Writer w;
    w.varint(0);
    EXPECT_EQ(w.buffer(), (Bytes{0x00}));
  }
  {
    Writer w;
    w.varint(127);
    EXPECT_EQ(w.buffer(), (Bytes{0x7f}));
  }
  {
    Writer w;
    w.varint(128);
    EXPECT_EQ(w.buffer(), (Bytes{0x80, 0x01}));
  }
  {
    Writer w;
    w.varint(300);
    EXPECT_EQ(w.buffer(), (Bytes{0xac, 0x02}));
  }
}

TEST(ReaderTest, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(w.buffer());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0xbeef);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(ReaderTest, VarintRoundTripSweep) {
  for (std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
        0xffffffffULL, 0xffffffffffffffffULL}) {
    Writer w;
    w.varint(v);
    Reader r(w.buffer());
    EXPECT_EQ(r.varint().value(), v);
  }
}

TEST(ReaderTest, F64RoundTrip) {
  for (double v : {0.0, 1.0, -1.5, 3.141592653589793, 1e-300, 1e300,
                   std::numeric_limits<double>::infinity()}) {
    Writer w;
    w.f64(v);
    Reader r(w.buffer());
    EXPECT_EQ(r.f64().value(), v);
  }
}

TEST(ReaderTest, F64NanRoundTrip) {
  Writer w;
  w.f64(std::nan(""));
  Reader r(w.buffer());
  EXPECT_TRUE(std::isnan(r.f64().value()));
}

TEST(ReaderTest, BytesAndStringRoundTrip) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.string("hello");
  w.bytes({});
  Reader r(w.buffer());
  EXPECT_EQ(r.bytes().value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.string().value(), "hello");
  EXPECT_TRUE(r.bytes().value().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(ReaderTest, VectorRoundTrips) {
  Writer w;
  w.vector_u32({1, 2, 3, 0xffffffff});
  w.vector_u64({42, 0xffffffffffffffffULL});
  Reader r(w.buffer());
  EXPECT_EQ(r.vector_u32().value(),
            (std::vector<std::uint32_t>{1, 2, 3, 0xffffffff}));
  EXPECT_EQ(r.vector_u64().value(),
            (std::vector<std::uint64_t>{42, 0xffffffffffffffffULL}));
}

TEST(ReaderTest, EmptyVectors) {
  Writer w;
  w.vector_u32({});
  w.vector_u64({});
  Reader r(w.buffer());
  EXPECT_TRUE(r.vector_u32().value().empty());
  EXPECT_TRUE(r.vector_u64().value().empty());
}

TEST(ReaderTest, TruncatedFixedWidthFails) {
  const Bytes short_buf = {0x01, 0x02};
  Reader r(short_buf);
  EXPECT_FALSE(r.u32().ok());
  // Cursor unchanged: a smaller read still works.
  EXPECT_TRUE(r.u16().ok());
}

TEST(ReaderTest, TruncatedBytesBodyFails) {
  Writer w;
  w.varint(100);  // claims 100 bytes follow
  w.raw(Bytes{1, 2, 3});
  Reader r(w.buffer());
  const auto result = r.bytes();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::bad_message);
}

TEST(ReaderTest, TruncatedVectorFails) {
  Writer w;
  w.varint(1000000);  // absurd element count
  Reader r(w.buffer());
  EXPECT_FALSE(r.vector_u32().ok());
}

TEST(ReaderTest, MaliciousVarintOverflowFails) {
  // 11 continuation bytes exceed the 64-bit range.
  const Bytes evil(11, 0xff);
  Reader r(evil);
  EXPECT_FALSE(r.varint().ok());
}

TEST(ReaderTest, RawReadsExactCount) {
  const Bytes data = {9, 8, 7, 6};
  Reader r(data);
  EXPECT_EQ(r.raw(2).value(), (Bytes{9, 8}));
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.raw(3).ok());
  EXPECT_EQ(r.raw(2).value(), (Bytes{7, 6}));
}

// Property: random message round trips through writer/reader.
class SerializeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializeFuzzTest, RandomRoundTrip) {
  common::Rng rng(GetParam());
  std::vector<std::uint64_t> u64s;
  std::vector<double> f64s;
  Bytes blob;
  const std::size_t n = rng.uniform_int(50);
  for (std::size_t i = 0; i < n; ++i) {
    u64s.push_back(rng.next());
    f64s.push_back(rng.normal());
    blob.push_back(static_cast<std::uint8_t>(rng.next()));
  }
  Writer w;
  w.vector_u64(u64s);
  for (double v : f64s) w.f64(v);
  w.bytes(blob);
  Reader r(w.buffer());
  EXPECT_EQ(r.vector_u64().value(), u64s);
  for (double v : f64s) EXPECT_EQ(r.f64().value(), v);
  EXPECT_EQ(r.bytes().value(), blob);
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzzTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace gendpr::wire
