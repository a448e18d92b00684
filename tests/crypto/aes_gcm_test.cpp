#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.hpp"
#include "hex.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/aes256.hpp"
#include "crypto/gcm.hpp"

namespace gendpr::crypto {
namespace {

using common::Bytes;
using common::from_hex;
using common::to_hex;

GcmNonce nonce_from_hex(const std::string& hex) {
  const Bytes raw = from_hex(hex);
  GcmNonce nonce{};
  std::copy(raw.begin(), raw.end(), nonce.begin());
  return nonce;
}

// FIPS 197 appendix C.3 known-answer test.
TEST(Aes256Test, Fips197AppendixC3) {
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f"
      "101112131415161718191a1b1c1d1e1f");
  const Bytes plaintext = from_hex("00112233445566778899aabbccddeeff");
  Aes256 aes(key);
  std::uint8_t ciphertext[16];
  aes.encrypt_block(plaintext.data(), ciphertext);
  EXPECT_EQ(to_hex(common::BytesView(ciphertext, 16)),
            "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes256Test, RejectsWrongKeySize) {
  const Bytes short_key(16, 0x00);
  EXPECT_THROW(Aes256 aes(short_key), std::invalid_argument);
}

// McGrew & Viega GCM spec test case 13 (AES-256, empty plaintext and AAD).
TEST(GcmTest, EmptyPlaintextZeroKey) {
  const Bytes key(32, 0x00);
  const GcmNonce nonce{};  // 96-bit zero IV
  const Bytes sealed = gcm_seal(key, nonce, {}, {});
  ASSERT_EQ(sealed.size(), kGcmTagSize);
  EXPECT_EQ(to_hex(sealed), "530f8afbc74536b9a963b4f1c4cb738b");
}

// McGrew & Viega GCM spec test case 14 (AES-256, 16 zero bytes).
TEST(GcmTest, SingleZeroBlockZeroKey) {
  const Bytes key(32, 0x00);
  const GcmNonce nonce{};
  const Bytes plaintext(16, 0x00);
  const Bytes sealed = gcm_seal(key, nonce, {}, plaintext);
  ASSERT_EQ(sealed.size(), 32u);
  EXPECT_EQ(to_hex(common::BytesView(sealed.data(), 16)),
            "cea7403d4d606b6e074ec5d3baf39d18");
  EXPECT_EQ(to_hex(common::BytesView(sealed.data() + 16, 16)),
            "d0d1c8a799996bf0265b98b5d48ab919");
}

// McGrew & Viega GCM spec test case 16 (AES-256 with AAD).
TEST(GcmTest, McGrewViegaCase16) {
  const Bytes key = from_hex(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  const GcmNonce nonce = nonce_from_hex("cafebabefacedbaddecaf888");
  const Bytes plaintext = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const Bytes sealed = gcm_seal(key, nonce, aad, plaintext);
  ASSERT_EQ(sealed.size(), plaintext.size() + kGcmTagSize);
  EXPECT_EQ(to_hex(common::BytesView(sealed.data(), plaintext.size())),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662");
  EXPECT_EQ(to_hex(common::BytesView(sealed.data() + plaintext.size(),
                                     kGcmTagSize)),
            "76fc6ece0f4e1768cddf8853bb2d551b");
}

TEST(GcmTest, SealOpenRoundTrip) {
  const Bytes key(32, 0x42);
  const GcmNonce nonce = nonce_from_hex("000102030405060708090a0b");
  const Bytes plaintext = common::to_bytes("allele counts vector payload");
  const Bytes aad = common::to_bytes("phase=1;gdo=3");
  const Bytes sealed = gcm_seal(key, nonce, aad, plaintext);
  const auto opened = gcm_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), plaintext);
}

TEST(GcmTest, OpenRejectsWrongKey) {
  const Bytes key(32, 0x42);
  Bytes wrong_key = key;
  wrong_key[31] ^= 1;
  const GcmNonce nonce{};
  const Bytes sealed = gcm_seal(key, nonce, {}, common::to_bytes("secret"));
  const auto opened = gcm_open(wrong_key, nonce, {}, sealed);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, common::Errc::decrypt_failed);
}

TEST(GcmTest, OpenRejectsWrongNonce) {
  const Bytes key(32, 0x42);
  const GcmNonce nonce{};
  GcmNonce other_nonce{};
  other_nonce[11] = 1;
  const Bytes sealed = gcm_seal(key, nonce, {}, common::to_bytes("secret"));
  EXPECT_FALSE(gcm_open(key, other_nonce, {}, sealed).ok());
}

TEST(GcmTest, OpenRejectsWrongAad) {
  const Bytes key(32, 0x42);
  const GcmNonce nonce{};
  const Bytes sealed =
      gcm_seal(key, nonce, common::to_bytes("aad-a"), common::to_bytes("x"));
  EXPECT_FALSE(gcm_open(key, nonce, common::to_bytes("aad-b"), sealed).ok());
}

TEST(GcmTest, OpenRejectsTruncatedInput) {
  const Bytes key(32, 0x42);
  const GcmNonce nonce{};
  const Bytes short_input(kGcmTagSize - 1, 0x00);
  EXPECT_FALSE(gcm_open(key, nonce, {}, short_input).ok());
}

// Property: every single-bit flip anywhere in the sealed blob must be caught.
class GcmTamperTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GcmTamperTest, BitFlipDetected) {
  const Bytes key(32, 0x37);
  const GcmNonce nonce{};
  const Bytes plaintext = common::to_bytes("tamper detection sweep payload");
  Bytes sealed = gcm_seal(key, nonce, {}, plaintext);
  const std::size_t byte_index = GetParam() % sealed.size();
  sealed[byte_index] ^= static_cast<std::uint8_t>(1u << (GetParam() % 8));
  EXPECT_FALSE(gcm_open(key, nonce, {}, sealed).ok())
      << "flip at byte " << byte_index;
}

INSTANTIATE_TEST_SUITE_P(AllOffsets, GcmTamperTest,
                         ::testing::Range<std::size_t>(0, 46));

// Property: round trip across many message sizes (block boundaries).
class GcmSizeSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GcmSizeSweepTest, RoundTrip) {
  common::Rng rng(GetParam() + 1);
  Bytes key(32);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  GcmNonce nonce{};
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.next());
  Bytes plaintext(GetParam());
  for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next());
  const Bytes sealed = gcm_seal(key, nonce, {}, plaintext);
  const auto opened = gcm_open(key, nonce, {}, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeSweepTest,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 255,
                                           256, 1000, 4096));

// The known-answer vectors above run through the gcm_seal/gcm_open wrappers,
// which dispatch to whichever backend the environment selects. This suite
// pins every backend available on the executing CPU against the same
// vectors explicitly, so a KAT regression in one backend cannot hide behind
// the dispatcher picking the other.
std::vector<AeadBackend> available_backends() {
  std::vector<AeadBackend> backends{AeadBackend::portable};
  if (aead_backend_available(AeadBackend::native)) {
    backends.push_back(AeadBackend::native);
  }
  return backends;
}

class GcmBackendVectorTest : public ::testing::TestWithParam<AeadBackend> {};

TEST_P(GcmBackendVectorTest, ForcedBackendIsSelected) {
  const Bytes key(32, 0x42);
  EXPECT_EQ(GcmContext(key, GetParam()).backend(), GetParam());
}

TEST_P(GcmBackendVectorTest, EmptyPlaintextZeroKey) {
  const Bytes key(32, 0x00);
  const GcmContext ctx(key, GetParam());
  const Bytes sealed = ctx.seal(GcmNonce{}, {}, {});
  ASSERT_EQ(sealed.size(), kGcmTagSize);
  EXPECT_EQ(to_hex(sealed), "530f8afbc74536b9a963b4f1c4cb738b");
}

TEST_P(GcmBackendVectorTest, SingleZeroBlockZeroKey) {
  const Bytes key(32, 0x00);
  const GcmContext ctx(key, GetParam());
  const Bytes sealed = ctx.seal(GcmNonce{}, {}, Bytes(16, 0x00));
  ASSERT_EQ(sealed.size(), 32u);
  EXPECT_EQ(to_hex(sealed),
            "cea7403d4d606b6e074ec5d3baf39d18"
            "d0d1c8a799996bf0265b98b5d48ab919");
}

TEST_P(GcmBackendVectorTest, McGrewViegaCase16) {
  const Bytes key = from_hex(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  const GcmNonce nonce = nonce_from_hex("cafebabefacedbaddecaf888");
  const Bytes plaintext = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const GcmContext ctx(key, GetParam());
  const Bytes sealed = ctx.seal(nonce, aad, plaintext);
  ASSERT_EQ(sealed.size(), plaintext.size() + kGcmTagSize);
  EXPECT_EQ(to_hex(common::BytesView(sealed.data(), plaintext.size())),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662");
  EXPECT_EQ(to_hex(common::BytesView(sealed.data() + plaintext.size(),
                                     kGcmTagSize)),
            "76fc6ece0f4e1768cddf8853bb2d551b");
  const auto opened = ctx.open(nonce, aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), plaintext);
}

std::string backend_test_name(
    const ::testing::TestParamInfo<AeadBackend>& param_info) {
  return aead_backend_name(param_info.param);
}

INSTANTIATE_TEST_SUITE_P(Backends, GcmBackendVectorTest,
                         ::testing::ValuesIn(available_backends()),
                         backend_test_name);

}  // namespace
}  // namespace gendpr::crypto
