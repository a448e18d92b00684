#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "hex.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"

namespace gendpr::crypto {
namespace {

using common::Bytes;
using common::from_hex;
using common::to_bytes;
using common::to_hex;

std::string mac_hex(common::BytesView key, common::BytesView data) {
  const Sha256Digest d = HmacSha256::mac(key, data);
  return to_hex(common::BytesView(d.data(), d.size()));
}

// RFC 4231 test vectors.
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(mac_hex(key, to_bytes("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(mac_hex(to_bytes("Jefe"),
                    to_bytes("what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(mac_hex(key, data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LargerThanBlockKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(mac_hex(key, to_bytes("Test Using Larger Than Block-Size Key - "
                                  "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LargerKeyAndData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(mac_hex(key, to_bytes("This is a test using a larger than "
                                  "block-size key and a larger than "
                                  "block-size data. The key needs to be "
                                  "hashed before being used by the HMAC "
                                  "algorithm.")),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, IncrementalMatchesOneShot) {
  const Bytes key = to_bytes("key material");
  const Bytes data = to_bytes("message split into parts");
  HmacSha256 h(key);
  h.update(common::BytesView(data.data(), 7));
  h.update(common::BytesView(data.data() + 7, data.size() - 7));
  EXPECT_EQ(h.finish(), HmacSha256::mac(key, data));
}

TEST(HmacTest, VerifyAcceptsCorrectTag) {
  const Bytes key = to_bytes("k");
  const Bytes data = to_bytes("d");
  const Sha256Digest tag = HmacSha256::mac(key, data);
  EXPECT_TRUE(HmacSha256::verify(key, data,
                                 common::BytesView(tag.data(), tag.size())));
}

TEST(HmacTest, VerifyRejectsTamperedTag) {
  const Bytes key = to_bytes("k");
  const Bytes data = to_bytes("d");
  Sha256Digest tag = HmacSha256::mac(key, data);
  tag[0] ^= 1;
  EXPECT_FALSE(HmacSha256::verify(key, data,
                                  common::BytesView(tag.data(), tag.size())));
}

TEST(HmacTest, VerifyRejectsTruncatedTag) {
  const Bytes key = to_bytes("k");
  const Bytes data = to_bytes("d");
  const Sha256Digest tag = HmacSha256::mac(key, data);
  EXPECT_FALSE(
      HmacSha256::verify(key, data, common::BytesView(tag.data(), 16)));
}

// RFC 5869 test vectors.
TEST(HkdfTest, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case2LongInputs) {
  Bytes ikm, salt, info;
  for (int i = 0x00; i <= 0x4f; ++i) {
    ikm.push_back(static_cast<std::uint8_t>(i));
  }
  for (int i = 0x60; i <= 0xaf; ++i) {
    salt.push_back(static_cast<std::uint8_t>(i));
  }
  for (int i = 0xb0; i <= 0xff; ++i) {
    info.push_back(static_cast<std::uint8_t>(i));
  }
  const Bytes okm = hkdf(salt, ikm, info, 82);
  EXPECT_EQ(to_hex(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes prk = hkdf_extract({}, ikm);
  EXPECT_EQ(to_hex(prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04");
  const Bytes okm = hkdf_expand(prk, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, ExpandRejectsZeroLength) {
  const Bytes prk(32, 0x01);
  EXPECT_THROW(hkdf_expand(prk, {}, 0), std::invalid_argument);
}

TEST(HkdfTest, ExpandRejectsOversizedLength) {
  const Bytes prk(32, 0x01);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

TEST(HkdfTest, DistinctInfoDistinctKeys) {
  const Bytes ikm(32, 0x42);
  const Bytes k1 = hkdf({}, ikm, to_bytes("client->server"), 32);
  const Bytes k2 = hkdf({}, ikm, to_bytes("server->client"), 32);
  EXPECT_NE(k1, k2);
}

}  // namespace
}  // namespace gendpr::crypto
