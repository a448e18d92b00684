#include "tee/enclave.hpp"

#include <gtest/gtest.h>

namespace gendpr::tee {
namespace {

struct TestEnclave : Enclave {
  TestEnclave(Platform& platform, const std::string& version = "1.0")
      : Enclave(platform, "gendpr.test", version) {}
};

crypto::Csprng test_rng(std::uint8_t tag) {
  return crypto::Csprng(std::array<std::uint8_t, 32>{tag});
}

TEST(EnclaveTest, IdentityReflectsPlatformAndModule) {
  QuotingAuthority authority(std::array<std::uint8_t, 32>{1});
  Platform platform(7, authority, test_rng(1));
  TestEnclave enclave(platform);
  EXPECT_EQ(enclave.identity().platform_id, 7u);
  EXPECT_EQ(enclave.measurement(), measure("gendpr.test", "1.0"));
}

TEST(EnclaveTest, SealUnsealOnSamePlatform) {
  QuotingAuthority authority(std::array<std::uint8_t, 32>{2});
  Platform platform(1, authority, test_rng(2));
  TestEnclave enclave(platform);
  const common::Bytes secret = common::to_bytes("persist me");
  const auto opened = enclave.unseal(enclave.seal(secret));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), secret);
}

TEST(EnclaveTest, CrossPlatformUnsealFails) {
  QuotingAuthority authority(std::array<std::uint8_t, 32>{3});
  Platform platform_a(1, authority, test_rng(3));
  Platform platform_b(2, authority, test_rng(4));
  TestEnclave enclave_a(platform_a);
  TestEnclave enclave_b(platform_b);
  const common::Bytes sealed = enclave_a.seal(common::to_bytes("local"));
  EXPECT_FALSE(enclave_b.unseal(sealed).ok());
}

TEST(EnclaveTest, CrossVersionUnsealFails) {
  QuotingAuthority authority(std::array<std::uint8_t, 32>{4});
  Platform platform(1, authority, test_rng(5));
  TestEnclave v1(platform, "1.0");
  TestEnclave v2(platform, "2.0");
  const common::Bytes sealed = v1.seal(common::to_bytes("v1 data"));
  EXPECT_FALSE(v2.unseal(sealed).ok());
}

TEST(EnclaveTest, ChannelBetweenEnclavesOnDistinctPlatforms) {
  QuotingAuthority authority(std::array<std::uint8_t, 32>{5});
  Platform platform_a(1, authority, test_rng(6));
  Platform platform_b(2, authority, test_rng(7));
  TestEnclave enclave_a(platform_a);
  TestEnclave enclave_b(platform_b);

  auto channel_a = enclave_a.channel_to(enclave_b.measurement(), true);
  auto channel_b = enclave_b.channel_to(enclave_a.measurement(), false);
  ASSERT_TRUE(channel_a->complete(channel_b->handshake_message()).ok());
  ASSERT_TRUE(channel_b->complete(channel_a->handshake_message()).ok());

  const common::Bytes msg = common::to_bytes("intermediate aggregate");
  common::Bytes opened;
  ASSERT_TRUE(channel_b->open_to(channel_a->seal(msg).value(), opened).ok());
  EXPECT_EQ(opened, msg);
}

TEST(EnclaveTest, EpcReservationEnforced) {
  QuotingAuthority authority(std::array<std::uint8_t, 32>{6});
  Platform platform(1, authority, test_rng(8), /*epc_limit=*/1024);
  TestEnclave enclave(platform);
  auto alloc = enclave.reserve_epc(1000);
  ASSERT_TRUE(alloc.ok());
  const auto too_much = enclave.reserve_epc(100);
  ASSERT_FALSE(too_much.ok());
  EXPECT_EQ(too_much.error().code, common::Errc::capacity_exceeded);
}

TEST(EnclaveTest, EpcReleasedByRaii) {
  QuotingAuthority authority(std::array<std::uint8_t, 32>{7});
  Platform platform(1, authority, test_rng(9), /*epc_limit=*/1024);
  TestEnclave enclave(platform);
  {
    auto alloc = enclave.reserve_epc(1024);
    ASSERT_TRUE(alloc.ok());
    EXPECT_EQ(platform.epc().in_use(), 1024u);
  }
  EXPECT_EQ(platform.epc().in_use(), 0u);
  EXPECT_EQ(platform.epc().peak(), 1024u);
}

}  // namespace
}  // namespace gendpr::tee
