#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include "hex.hpp"

namespace gendpr::common {
namespace {

TEST(BytesTest, ToHexEmpty) {
  EXPECT_EQ(to_hex({}), "");
}

TEST(BytesTest, ToHexKnownValues) {
  const Bytes data = {0x00, 0x01, 0x0f, 0x10, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "00010f10abff");
}

TEST(BytesTest, FromHexRoundTrip) {
  const Bytes data = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  EXPECT_EQ(from_hex(to_hex(data)), data);
}

TEST(BytesTest, FromHexUppercase) {
  EXPECT_EQ(from_hex("DEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(BytesTest, FromHexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(BytesTest, FromHexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
  EXPECT_THROW(from_hex("0g"), std::invalid_argument);
}

TEST(BytesTest, CtEqualMatches) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  EXPECT_TRUE(ct_equal(a, b));
}

TEST(BytesTest, CtEqualDetectsSingleBitDifference) {
  const Bytes a = {1, 2, 3};
  Bytes b = a;
  b[2] ^= 0x01;
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(BytesTest, CtEqualDifferentLengths) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2};
  EXPECT_FALSE(ct_equal(a, b));
}

TEST(BytesTest, CtEqualEmpty) {
  EXPECT_TRUE(ct_equal({}, {}));
}

TEST(BytesTest, SecureZeroClearsBuffer) {
  Bytes buf = {0xaa, 0xbb, 0xcc};
  secure_zero(buf);
  EXPECT_EQ(buf, (Bytes{0, 0, 0}));
}

TEST(BytesTest, ToBytesPreservesContent) {
  EXPECT_EQ(to_bytes("abc"), (Bytes{'a', 'b', 'c'}));
}

TEST(BytesTest, AppendConcatenates) {
  Bytes dst = {1, 2};
  const Bytes src = {3, 4};
  append(dst, src);
  EXPECT_EQ(dst, (Bytes{1, 2, 3, 4}));
}

}  // namespace
}  // namespace gendpr::common
