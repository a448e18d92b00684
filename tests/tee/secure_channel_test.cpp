#include "tee/secure_channel.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/bytes.hpp"

namespace gendpr::tee {
namespace {

using common::Bytes;

/// Opens one record into a buffer of its own.
common::Result<Bytes> open_record(SecureChannel& channel,
                                  common::BytesView record) {
  Bytes plaintext;
  if (auto status = channel.open_to(record, plaintext); !status.ok()) {
    return status.error();
  }
  return plaintext;
}

struct ChannelFixture {
  QuotingAuthority authority{std::array<std::uint8_t, 32>{0x42}};
  Measurement module = measure("gendpr.trusted", "1.0");
  crypto::Csprng rng_a{std::array<std::uint8_t, 32>{1}};
  crypto::Csprng rng_b{std::array<std::uint8_t, 32>{2}};

  SecureChannel make_initiator() {
    return SecureChannel(authority, {1, module}, module, true, rng_a);
  }
  SecureChannel make_responder() {
    return SecureChannel(authority, {2, module}, module, false, rng_b);
  }
};

TEST(SecureChannelTest, HandshakeEstablishesBothSides) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());
  EXPECT_TRUE(a.established());
  EXPECT_TRUE(b.established());
  EXPECT_EQ(a.peer_identity().platform_id, 2u);
  EXPECT_EQ(b.peer_identity().platform_id, 1u);
}

TEST(SecureChannelTest, BidirectionalSealOpen) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());

  const Bytes msg1 = common::to_bytes("caseLocalCounts vector");
  const auto rec1 = a.seal(msg1);
  ASSERT_TRUE(rec1.ok());
  const auto opened1 = open_record(b, rec1.value());
  ASSERT_TRUE(opened1.ok());
  EXPECT_EQ(opened1.value(), msg1);

  const Bytes msg2 = common::to_bytes("retained SNP list");
  const auto rec2 = b.seal(msg2);
  ASSERT_TRUE(rec2.ok());
  const auto opened2 = open_record(a, rec2.value());
  ASSERT_TRUE(opened2.ok());
  EXPECT_EQ(opened2.value(), msg2);
}

TEST(SecureChannelTest, ManySequentialRecords) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());
  for (int i = 0; i < 100; ++i) {
    const Bytes msg = {static_cast<std::uint8_t>(i)};
    const auto opened = open_record(b, a.seal(msg).value());
    ASSERT_TRUE(opened.ok()) << "record " << i;
    EXPECT_EQ(opened.value(), msg);
  }
}

TEST(SecureChannelTest, CiphertextHidesPlaintext) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());
  const Bytes msg = common::to_bytes("very secret genome aggregate");
  const Bytes record = a.seal(msg).value();
  EXPECT_EQ(std::search(record.begin(), record.end(), msg.begin(), msg.end()),
            record.end());
  EXPECT_EQ(record.size(), msg.size() + SecureChannel::record_overhead());
}

TEST(SecureChannelTest, ReplayRejected) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());
  const Bytes record = a.seal(common::to_bytes("once")).value();
  ASSERT_TRUE(open_record(b, record).ok());
  const auto replayed = open_record(b, record);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.error().code, common::Errc::bad_message);
}

TEST(SecureChannelTest, ReorderRejected) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());
  const Bytes r0 = a.seal(common::to_bytes("first")).value();
  const Bytes r1 = a.seal(common::to_bytes("second")).value();
  EXPECT_FALSE(open_record(b, r1).ok());  // out of order
  EXPECT_TRUE(open_record(b, r0).ok());   // correct order still works
}

TEST(SecureChannelTest, TamperedRecordRejected) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());
  Bytes record = a.seal(common::to_bytes("payload")).value();
  record[10] ^= 0x01;
  EXPECT_FALSE(open_record(b, record).ok());
}

TEST(SecureChannelTest, WrongMeasurementRejectedAtHandshake) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  // b runs a different (e.g. tampered) trusted module.
  const Measurement evil = measure("gendpr.trusted", "evil");
  SecureChannel b(f.authority, {2, evil}, f.module, false, f.rng_b);
  const auto status = a.complete(b.handshake_message());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::attestation_rejected);
}

TEST(SecureChannelTest, QuoteFromRogueAuthorityRejected) {
  ChannelFixture f;
  QuotingAuthority rogue(std::array<std::uint8_t, 32>{0x66});
  SecureChannel a = f.make_initiator();
  SecureChannel b(rogue, {2, f.module}, f.module, false, f.rng_b);
  EXPECT_FALSE(a.complete(b.handshake_message()).ok());
}

TEST(SecureChannelTest, SplicedEphemeralKeyRejected) {
  // An attacker intercepts b's handshake and replaces the ephemeral key;
  // the quote binding must catch it.
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  Bytes handshake = b.handshake_message();
  handshake[handshake.size() - 1] ^= 0x01;  // flip a bit of eph_pub
  const auto status = a.complete(handshake);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::attestation_rejected);
}

TEST(SecureChannelTest, TruncatedHandshakeRejected) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  const Bytes handshake = b.handshake_message();
  for (std::size_t len = 0; len < handshake.size(); len += 17) {
    SecureChannel fresh = f.make_initiator();
    EXPECT_FALSE(
        fresh.complete(common::BytesView(handshake.data(), len)).ok());
  }
}

TEST(SecureChannelTest, SealBeforeHandshakeFails) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  const auto result = a.seal(common::to_bytes("early"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::state_violation);
}

TEST(SecureChannelTest, DoubleCompleteFails) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  const auto status = a.complete(b.handshake_message());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::state_violation);
}

// The channel's wire format must not depend on which AEAD backend sealed a
// record: the fixture's deterministic CSPRNGs make two channel pairs derive
// identical keys, so records sealed under each forced backend must be
// byte-identical and each side must open the other backend's records.
TEST(SecureChannelTest, RecordsAreByteIdenticalAcrossBackends) {
  const std::vector<Bytes> messages = {
      common::to_bytes("caseLocalCounts vector"), Bytes{},
      Bytes(1000, 0x5a)};
  std::vector<std::vector<Bytes>> records_by_backend;
  for (const char* backend : {"portable", "native"}) {
    ASSERT_EQ(setenv("GENDPR_CRYPTO_BACKEND", backend, 1), 0);
    ChannelFixture f;
    SecureChannel a = f.make_initiator();
    SecureChannel b = f.make_responder();
    ASSERT_TRUE(a.complete(b.handshake_message()).ok());
    ASSERT_TRUE(b.complete(a.handshake_message()).ok());
    std::vector<Bytes> records;
    for (const Bytes& msg : messages) {
      records.push_back(a.seal(msg).value());
      const auto opened = open_record(b, records.back());
      ASSERT_TRUE(opened.ok());
      EXPECT_EQ(opened.value(), msg);
    }
    records_by_backend.push_back(std::move(records));
  }
  ASSERT_EQ(unsetenv("GENDPR_CRYPTO_BACKEND"), 0);
  // On CPUs without AES-NI the "native" pair silently ran portable, which
  // still must (trivially) match.
  EXPECT_EQ(records_by_backend[0], records_by_backend[1]);
}

TEST(SecureChannelTest, CrossBackendInterop) {
  if (!crypto::aead_backend_available(crypto::AeadBackend::native)) {
    GTEST_SKIP() << "native AEAD backend not supported on this CPU";
  }
  // Sender dispatches native, receiver is forced portable: the record must
  // open cleanly, proving on-the-wire compatibility between backends. The
  // AEAD contexts are bound when complete() derives the direction keys, so
  // the override is toggled around each side's completion.
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_EQ(setenv("GENDPR_CRYPTO_BACKEND", "native", 1), 0);
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_EQ(setenv("GENDPR_CRYPTO_BACKEND", "portable", 1), 0);
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());
  ASSERT_EQ(unsetenv("GENDPR_CRYPTO_BACKEND"), 0);
  EXPECT_EQ(a.crypto_backend(), crypto::AeadBackend::native);
  EXPECT_EQ(b.crypto_backend(), crypto::AeadBackend::portable);
  const Bytes msg = common::to_bytes("allele counts across backends");
  const auto opened = open_record(b, a.seal(msg).value());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), msg);
}

TEST(SecureChannelTest, OpenToReusesScratchAcrossRecords) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());
  Bytes scratch;
  for (int i = 0; i < 20; ++i) {
    const Bytes msg(static_cast<std::size_t>(i * 7),
                    static_cast<std::uint8_t>(i));
    ASSERT_TRUE(b.open_to(a.seal(msg).value(), scratch).ok()) << i;
    EXPECT_EQ(scratch, msg);
  }
}

TEST(SecureChannelTest, DirectionsUseDistinctKeys) {
  ChannelFixture f;
  SecureChannel a = f.make_initiator();
  SecureChannel b = f.make_responder();
  ASSERT_TRUE(a.complete(b.handshake_message()).ok());
  ASSERT_TRUE(b.complete(a.handshake_message()).ok());
  // A record sealed by a must not decrypt as if it came from b (i.e. a
  // cannot open its own record).
  const Bytes record = a.seal(common::to_bytes("direction test")).value();
  EXPECT_FALSE(open_record(a, record).ok());
}

}  // namespace
}  // namespace gendpr::tee
