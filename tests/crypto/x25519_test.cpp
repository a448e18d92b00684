#include "crypto/x25519.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "hex.hpp"
#include "crypto/csprng.hpp"

namespace gendpr::crypto {
namespace {

using common::Bytes;
using common::from_hex;
using common::to_hex;

X25519Key key_from_hex(const std::string& hex) {
  const Bytes raw = from_hex(hex);
  X25519Key key{};
  std::copy(raw.begin(), raw.end(), key.begin());
  return key;
}

std::string key_hex(const X25519Key& key) {
  return to_hex(common::BytesView(key.data(), key.size()));
}

// RFC 7748 section 5.2 vector 1.
TEST(X25519Test, Rfc7748Vector1) {
  const X25519Key scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const X25519Key point = key_from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(key_hex(x25519(scalar, point)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

// RFC 7748 section 5.2 vector 2.
TEST(X25519Test, Rfc7748Vector2) {
  const X25519Key scalar = key_from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const X25519Key point = key_from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(key_hex(x25519(scalar, point)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

// RFC 7748 section 6.1 Diffie-Hellman.
TEST(X25519Test, Rfc7748DiffieHellman) {
  const X25519Key alice_sk = key_from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const X25519Key bob_sk = key_from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

  const X25519Key alice_pk = x25519_base(alice_sk);
  const X25519Key bob_pk = x25519_base(bob_sk);
  EXPECT_EQ(key_hex(alice_pk),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(key_hex(bob_pk),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  const X25519Key alice_shared = x25519(alice_sk, bob_pk);
  const X25519Key bob_shared = x25519(bob_sk, alice_pk);
  EXPECT_EQ(key_hex(alice_shared),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
  EXPECT_EQ(alice_shared, bob_shared);
}

TEST(X25519Test, KeypairConsistency) {
  Csprng rng(std::array<std::uint8_t, 32>{1, 2, 3});
  const X25519Key secret = rng.array<32>();
  const X25519KeyPair pair = x25519_keypair(secret);
  EXPECT_EQ(pair.secret, secret);
  EXPECT_EQ(pair.public_key, x25519_base(secret));
}

// Property: DH agreement holds for random keypairs.
class X25519AgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(X25519AgreementTest, SharedSecretsAgree) {
  Csprng rng(std::array<std::uint8_t, 32>{
      static_cast<std::uint8_t>(GetParam()), 0x55, 0xaa});
  const X25519Key a_sk = rng.array<32>();
  const X25519Key b_sk = rng.array<32>();
  const X25519Key a_pk = x25519_base(a_sk);
  const X25519Key b_pk = x25519_base(b_sk);
  EXPECT_EQ(x25519(a_sk, b_pk), x25519(b_sk, a_pk));
}

INSTANTIATE_TEST_SUITE_P(RandomKeys, X25519AgreementTest,
                         ::testing::Range(0, 8));

TEST(X25519Test, ClampingMakesLowBitsIrrelevant) {
  Csprng rng(std::array<std::uint8_t, 32>{9});
  X25519Key scalar = rng.array<32>();
  const X25519Key point = x25519_base(rng.array<32>());
  const X25519Key r1 = x25519(scalar, point);
  scalar[0] ^= 0x07;  // bits cleared by clamping
  const X25519Key r2 = x25519(scalar, point);
  EXPECT_EQ(r1, r2);
}

}  // namespace
}  // namespace gendpr::crypto
