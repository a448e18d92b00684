#include "crypto/x25519.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/csprng.hpp"
#include "hex.hpp"
#include "x25519_reference.hpp"

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

// RFC 7748 section 5.2 iterated vector: k = u = 9, then each round's output
// becomes the next scalar and the previous scalar the next u.
TEST(X25519Test, Rfc7748IteratedVector) {
  X25519Key k{};
  k[0] = 9;
  X25519Key u = k;
  for (int i = 1; i <= 1000; ++i) {
    const X25519Key r = x25519(k, u);
    u = k;
    k = r;
    if (i == 1) {
      EXPECT_EQ(key_hex(k), "422c8e7a6227d7bca1350b3e2bb7279f"
                            "7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(key_hex(k), "684cf59ba83309552800ef566f2f4d3c"
                        "1c3887c49360e3875f2eb94d99532c51");
}

// RFC 7748 section 5: a u-coordinate in [p, 2^255) is reduced mod p, so
// u = p + 9 acts as u = 9.
TEST(X25519Test, NonCanonicalInputReducesModP) {
  const X25519Key scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  X25519Key nine{};
  nine[0] = 9;
  const X25519Key p_plus_9 = key_from_hex(
      "f6ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_EQ(key_hex(x25519(scalar, nine)),
            "1c9fd88f45606d932a80c71824ae151d15d73e77de38e8e000852e614fae7019");
  EXPECT_EQ(x25519(scalar, p_plus_9), x25519(scalar, nine));
}

// Differential check against the TweetNaCl-field reference on seeded random
// (scalar, u) pairs. Random u values have bit 255 set half the time.
TEST(X25519Test, MatchesReferenceOnRandomPairs) {
  Csprng rng(std::array<std::uint8_t, 32>{0x25, 0x51, 0x19});
  for (int i = 0; i < 2000; ++i) {
    const X25519Key scalar = rng.array<32>();
    const X25519Key u = rng.array<32>();
    ASSERT_EQ(key_hex(x25519(scalar, u)), key_hex(reference::x25519(scalar, u)))
        << "pair " << i << ": scalar " << key_hex(scalar) << ", u "
        << key_hex(u);
  }
}

// u values at the edges of the field and of the 51-bit limbs: 0, 1, p - 1,
// p, p + 1, 2^255 - 1 (every limb all ones) and each single limb all ones,
// each also with bit 255 set.
TEST(X25519Test, MatchesReferenceOnLimbEdgeInputs) {
  std::vector<X25519Key> edges;
  const auto little_endian = [](const std::string& big_endian_hex) {
    X25519Key key = key_from_hex(big_endian_hex);
    std::reverse(key.begin(), key.end());
    return key;
  };
  const std::string p =
      "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed";
  edges.push_back(X25519Key{});                                 // 0
  edges.push_back(little_endian(std::string(63, '0') + "1"));   // 1
  edges.push_back(little_endian(p.substr(0, 63) + "c"));        // p - 1
  edges.push_back(little_endian(p));                            // p
  edges.push_back(little_endian(p.substr(0, 63) + "e"));        // p + 1
  edges.push_back(little_endian("7f" + std::string(62, 'f')));  // 2^255 - 1
  for (int limb = 0; limb < 5; ++limb) {
    X25519Key u{};
    for (int bit = 51 * limb; bit < 51 * (limb + 1); ++bit) {
      u[bit >> 3] |= static_cast<std::uint8_t>(1u << (bit & 7));
    }
    edges.push_back(u);
  }
  for (std::size_t i = 0, n = edges.size(); i < n; ++i) {
    X25519Key high = edges[i];
    high[31] |= 0x80;
    edges.push_back(high);
  }

  Csprng rng(std::array<std::uint8_t, 32>{0xed, 0x9e});
  X25519Key ones;
  ones.fill(0xff);
  const X25519Key scalars[] = {X25519Key{}, ones, rng.array<32>(),
                               rng.array<32>()};
  for (const X25519Key& u : edges) {
    for (const X25519Key& scalar : scalars) {
      EXPECT_EQ(key_hex(x25519(scalar, u)),
                key_hex(reference::x25519(scalar, u)))
          << "scalar " << key_hex(scalar) << ", u " << key_hex(u);
    }
  }
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
