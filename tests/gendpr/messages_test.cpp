#include "gendpr/messages.hpp"

#include <gtest/gtest.h>

#include "fuzz_message_codecs.hpp"
#include "message_bytes.hpp"
#include "pinned_messages.hpp"
#include "wire/serialize.hpp"

namespace gendpr::core {
namespace {

TEST(MessagesTest, EncodingsArePinned) {
  // Every message type, LrMatrices included, against its hand-written body.
  const std::vector<PinnedEncoding> pins = pinned_encodings();
  EXPECT_EQ(pins.size(), 11u);
  for (const PinnedEncoding& pin : pins) {
    EXPECT_EQ(pin.encoded, pin.expected) << pin.name;
  }
}

TEST(MessagesTest, CodecFuzzHarnessReplaysPinnedSeeds) {
  // Smoke of fuzz_message_codecs: each pinned body behind its type byte is
  // a seed that must decode and pass the harness's re-encode checks, and
  // every single bit flip of its body that still decodes must pass them too
  // (the harness aborts on a violation).
  for (const PinnedEncoding& pin : pinned_encodings()) {
    common::Bytes seed{pin.tag};
    seed.insert(seed.end(), pin.expected.begin(), pin.expected.end());
    EXPECT_TRUE(fuzz::check_message_codecs(seed.data(), seed.size()))
        << pin.name;
    for (std::size_t i = 1; i < seed.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        common::Bytes flipped = seed;
        flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
        (void)fuzz::check_message_codecs(flipped.data(), flipped.size());
      }
    }
  }
}

TEST(MessagesTest, StudyAnnounceRoundTrip) {
  StudyAnnounce msg;
  msg.num_snps = 1000;
  msg.snp_tile_width = 64;  // non-default: must survive the wire
  const common::Bytes encoded = serialize(msg);
  EXPECT_EQ(encoded.size(), 8u);  // u32 num_snps, u32 snp_tile_width
  EXPECT_EQ(wire::encoded_size(msg), encoded.size());
  const auto restored = wire::decode<StudyAnnounce>(encoded);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().num_snps, 1000u);
  EXPECT_EQ(restored.value().snp_tile_width, 64u);
}

TEST(MessagesTest, SummaryStatsRoundTrip) {
  SummaryStats msg;
  msg.case_counts = {1, 2, 3, 1000000};
  msg.n_case = 4242;
  const auto restored = wire::decode<SummaryStats>(serialize(msg));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().case_counts, msg.case_counts);
  EXPECT_EQ(restored.value().n_case, 4242u);
}

TEST(MessagesTest, Phase1ResultRoundTrip) {
  Phase1Result msg;
  msg.retained = {0, 5, 7, 999};
  const auto restored = wire::decode<Phase1Result>(serialize(msg));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().retained, msg.retained);
}

TEST(MessagesTest, MomentsRequestResponseRoundTrip) {
  MomentsRequest request{17, 3, 4};
  const auto restored_req = wire::decode<MomentsRequest>(serialize(request));
  ASSERT_TRUE(restored_req.ok());
  EXPECT_EQ(restored_req.value().request_id, 17u);
  EXPECT_EQ(restored_req.value().snp_a, 3u);
  EXPECT_EQ(restored_req.value().snp_b, 4u);

  MomentsResponse response;
  response.request_id = 17;
  response.co_count = 5;
  const common::Bytes encoded = serialize(response);
  EXPECT_EQ(encoded.size(), 8u);  // request id + one u32 count
  const auto restored = wire::decode<MomentsResponse>(encoded);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().request_id, 17u);
  EXPECT_EQ(restored.value().co_count, 5u);
}

TEST(MessagesTest, LdWindowRoundTrip) {
  LdWindow msg;
  msg.tile_index = 3;
  msg.counts.assign(2 * kLdWindow, 0);
  msg.counts[kLdWindow] = 7;
  msg.counts.back() = 0xffffffffu;
  const common::Bytes encoded = serialize(msg);
  EXPECT_EQ(encoded.size(), wire::encoded_size(msg));
  const auto restored = wire::decode<LdWindow>(encoded);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().tile_index, 3u);
  EXPECT_EQ(restored.value().counts, msg.counts);

  const auto opened = open_envelope(envelope(MsgType::ld_window, encoded));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().first, MsgType::ld_window);
}

TEST(MessagesTest, LdWindowMalformedRejected) {
  LdWindow msg;
  msg.tile_index = 1;
  msg.counts = {1, 2, 3};
  const common::Bytes full = serialize(msg);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(
        wire::decode<LdWindow>(common::BytesView(full.data(), len)).ok())
        << "truncation to " << len << " accepted";
  }
  common::Bytes trailing = full;
  trailing.push_back(0);
  EXPECT_FALSE(wire::decode<LdWindow>(trailing).ok());

  // A count vector longer than the body must fail cleanly, not allocate.
  wire::Writer w;
  w.u32(0);
  w.varint(0xffffffffu);
  EXPECT_FALSE(wire::decode<LdWindow>(w.buffer()).ok());
}

TEST(MessagesTest, Phase2ResultRoundTrip) {
  Phase2Result msg;
  msg.retained = {1, 2, 300};
  msg.tile_index = 1;
  msg.num_tiles = 3;
  const common::Bytes bytes = serialize(msg);
  EXPECT_EQ(bytes.size(), wire::encoded_size(msg));
  const auto restored = wire::decode<Phase2Result>(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().retained, msg.retained);
  EXPECT_EQ(restored.value().tile_index, 1u);
  EXPECT_EQ(restored.value().num_tiles, 3u);
}

TEST(MessagesTest, Phase2ResultDeadGdosRoundTrip) {
  // The leader keeps the dead set: a tile of a degraded study is the same
  // three fields as a clean one, L'' followed by the tile position, with
  // nothing per GDO.
  Phase2Result msg;
  msg.retained = {3, 9};
  msg.tile_index = 4;
  msg.num_tiles = 5;
  wire::Writer expected;
  expected.vector_u32(msg.retained);
  expected.u32(4);
  expected.u32(5);
  EXPECT_EQ(serialize(msg), expected.buffer());
  const auto restored = wire::decode<Phase2Result>(expected.buffer());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().retained, msg.retained);
  EXPECT_EQ(restored.value().tile_index, 4u);
}

TEST(MessagesTest, Phase2ResultPopulationSizeMismatchRejected) {
  // A body that still carries per-GDO populations after the tile fields is
  // malformed, and so is a tile position outside its stream.
  Phase2Result msg;
  msg.retained = {3};
  common::Bytes with_populations = serialize(msg);
  wire::Writer populations;
  populations.vector_u32({8, 9});
  with_populations.insert(with_populations.end(),
                          populations.buffer().begin(),
                          populations.buffer().end());
  EXPECT_EQ(wire::decode<Phase2Result>(with_populations).error().code,
            common::Errc::bad_message);
  msg.tile_index = 2;
  msg.num_tiles = 2;
  EXPECT_EQ(wire::decode<Phase2Result>(serialize(msg)).error().code,
            common::Errc::bad_message);
}

TEST(MessagesTest, AbortNoticeRoundTrip) {
  AbortNotice msg;
  msg.failed_gdo = 2;
  msg.reason = "LR gather timed out: unresponsive gdo(s): 2";
  const auto restored = wire::decode<AbortNotice>(serialize(msg));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().failed_gdo, 2u);
  EXPECT_EQ(restored.value().reason, msg.reason);

  AbortNotice anonymous;  // no peer to blame
  const auto restored_anon = wire::decode<AbortNotice>(serialize(anonymous));
  ASSERT_TRUE(restored_anon.ok());
  EXPECT_EQ(restored_anon.value().failed_gdo, AbortNotice::kNoFailedGdo);
  EXPECT_TRUE(restored_anon.value().reason.empty());
}

TEST(MessagesTest, AbortNoticeTruncationRejected) {
  AbortNotice msg;
  msg.failed_gdo = 1;
  msg.reason = "gone";
  const common::Bytes full = serialize(msg);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(
        wire::decode<AbortNotice>(common::BytesView(full.data(), len)).ok())
        << "truncation to " << len << " accepted";
  }
}

TEST(MessagesTest, LrMatricesRoundTrip) {
  LrMatrices msg;
  LrMatrices::Entry entry;
  entry.combination_id = 2;
  entry.matrix = stats::LrMatrix(2, 3);
  entry.matrix.at(0, 0) = 1.5;
  entry.matrix.at(1, 2) = -0.25;
  msg.entries.push_back(entry);
  const auto restored = LrMatrices::deserialize(msg.serialize());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.value().entries.size(), 1u);
  EXPECT_EQ(restored.value().entries[0].combination_id, 2u);
  EXPECT_EQ(restored.value().entries[0].matrix, entry.matrix);
}

TEST(MessagesTest, LrPlanesRoundTrip) {
  LrPlanes msg;
  msg.tile_index = 3;
  msg.width = 2;
  msg.words_per_column = 2;
  msg.words = {0x1, 0xffffffffffffffffull, 0x8000000000000000ull, 0x2a};
  const common::Bytes encoded = serialize(msg);
  EXPECT_EQ(encoded.size(), wire::encoded_size(msg));
  const auto restored = wire::decode<LrPlanes>(encoded);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().tile_index, 3u);
  EXPECT_EQ(restored.value().width, 2u);
  EXPECT_EQ(restored.value().words_per_column, 2u);
  EXPECT_EQ(restored.value().words, msg.words);
}

TEST(MessagesTest, LrPlanesTruncationRejected) {
  LrPlanes msg{1, 3, 2, {1, 2, 3, 4, 5, 6}};
  const common::Bytes full = serialize(msg);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(
        wire::decode<LrPlanes>(common::BytesView(full.data(), len)).ok())
        << "truncation to " << len << " accepted";
  }
}

TEST(MessagesTest, LrPlanesShapeMustMatchWordCount) {
  // A header whose width x words_per_column disagrees with the body is
  // malformed, whichever side is off.
  for (const LrPlanes& msg : {LrPlanes{0, 3, 2, {1, 2, 3, 4, 5}},
                              LrPlanes{0, 0xffffffffu, 0xffffffffu, {1}}}) {
    const auto restored = wire::decode<LrPlanes>(serialize(msg));
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.error().code, common::Errc::bad_message);
  }
}

TEST(MessagesTest, Phase3ResultRoundTrip) {
  Phase3Result msg;
  msg.safe = {4, 8, 15};
  const common::Bytes encoded = serialize(msg);
  EXPECT_EQ(encoded.size(), 1u + 3 * 4);  // varint count, u32 safe[count]
  EXPECT_EQ(wire::encoded_size(msg), encoded.size());
  const auto restored = wire::decode<Phase3Result>(encoded);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().safe, msg.safe);
}

TEST(MessagesTest, EnvelopeRoundTrip) {
  const common::Bytes body = {1, 2, 3};
  const common::Bytes framed = envelope(MsgType::phase1_result, body);
  const auto opened = open_envelope(framed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().first, MsgType::phase1_result);
  const common::Bytes opened_body(opened.value().second.begin(),
                                  opened.value().second.end());
  EXPECT_EQ(opened_body, body);
}

TEST(MessagesTest, EmptyEnvelopeRejected) {
  EXPECT_FALSE(open_envelope({}).ok());
}

TEST(MessagesTest, UnknownTypeRejected) {
  const common::Bytes bad = {0x77, 1, 2};
  EXPECT_FALSE(open_envelope(bad).ok());
  const common::Bytes past_last = {
      static_cast<std::uint8_t>(static_cast<std::uint8_t>(MsgType::ld_window) +
                                1)};
  EXPECT_FALSE(open_envelope(past_last).ok());
  const common::Bytes zero = {0x00};
  EXPECT_FALSE(open_envelope(zero).ok());
}

/// Every strict prefix of `msg`'s encoding must fail `msg`'s own decoder.
template <typename M>
void expect_prefixes_rejected(const M& msg, const char* name) {
  const common::Bytes full = serialize(msg);
  ASSERT_TRUE(wire::decode<M>(full).ok()) << name;
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(wire::decode<M>(common::BytesView(full.data(), len)).ok())
        << name << " truncated to " << len << " of " << full.size()
        << " bytes accepted";
  }
}

TEST(MessagesTest, TruncationRejectedEverywhere) {
  expect_prefixes_rejected(StudyAnnounce{5, 2}, "StudyAnnounce");
  expect_prefixes_rejected(SummaryStats{{1, 2, 3}, 40, 2}, "SummaryStats");
  expect_prefixes_rejected(Phase1Result{{0, 4, 9}}, "Phase1Result");
  expect_prefixes_rejected(
      LdWindow{1, std::vector<std::uint32_t>(kLdWindow, 3)}, "LdWindow");
  expect_prefixes_rejected(MomentsRequest{17, 3, 4}, "MomentsRequest");
  expect_prefixes_rejected(MomentsResponse{17, 5}, "MomentsResponse");
  expect_prefixes_rejected(Phase2Result{{1, 2, 3}, 1, 2}, "Phase2Result");
  expect_prefixes_rejected(LrPlanes{0, 2, 1, {7, 9}}, "LrPlanes");
  LrMatrices matrices;
  matrices.entries.push_back({0, stats::LrMatrix(2, 2)});
  expect_prefixes_rejected(matrices, "LrMatrices");
  expect_prefixes_rejected(Phase3Result{{2, 8}}, "Phase3Result");
  expect_prefixes_rejected(AbortNotice{1, "gdo 1 unresponsive"},
                           "AbortNotice");
}

TEST(MessagesTest, TrailingBytesRejected) {
  Phase1Result msg;
  msg.retained = {1};
  common::Bytes data = serialize(msg);
  data.push_back(0xff);
  EXPECT_FALSE(wire::decode<Phase1Result>(data).ok());
}

TEST(MessagesTest, MaliciousMatrixDimensionsRejected) {
  // Claim a huge matrix with no body: must fail cleanly, not allocate.
  wire::Writer w;
  w.varint(1);          // one entry
  w.u32(0);             // combination id
  w.u32(0xffffffff);    // rows
  w.u32(0xffffffff);    // cols
  EXPECT_FALSE(wire::decode<LrMatrices>(w.buffer()).ok());
}

}  // namespace
}  // namespace gendpr::core
