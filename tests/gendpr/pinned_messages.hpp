// One non-trivial instance of every protocol message, each next to its body
// spelled out by hand with wire::Writer. Round-trip tests encode and decode
// with the same codec, so a layout drift passes them; comparing the codec's
// bytes with these sequences pins each layout. The codec fuzz harness's
// smoke test replays the hand-written bodies as seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "gendpr/messages.hpp"
#include "message_bytes.hpp"
#include "wire/serialize.hpp"

namespace gendpr::core {

struct PinnedEncoding {
  const char* name;
  /// The envelope type byte; 0 for LrMatrices, which has no MsgType (the
  /// codec fuzz harness reads it as LrMatrices too).
  std::uint8_t tag;
  common::Bytes encoded;   // what the codec writes for the instance
  common::Bytes expected;  // the layout, written field by field
};

inline std::vector<PinnedEncoding> pinned_encodings() {
  std::vector<PinnedEncoding> pins;
  const auto pin = [&pins](const char* name, std::uint8_t tag,
                           const auto& msg, const wire::Writer& expected) {
    pins.push_back({name, tag, serialize(msg), expected.buffer()});
  };
  const auto tag = [](MsgType type) { return static_cast<std::uint8_t>(type); };

  {
    wire::Writer w;
    w.u32(1000);
    w.u32(64);
    pin("StudyAnnounce", tag(MsgType::study_announce), StudyAnnounce{1000, 64},
        w);
  }
  {
    wire::Writer w;
    w.varint(4);
    for (std::uint32_t v : {1u, 2u, 3u, 1000000u}) w.u32(v);
    w.u32(4242);
    w.u32(7);
    pin("SummaryStats", tag(MsgType::summary_stats),
        SummaryStats{{1, 2, 3, 1000000}, 4242, 7}, w);
  }
  {
    // 150 entries: the count takes a two-byte varint.
    Phase1Result msg;
    for (std::uint32_t i = 0; i < 150; ++i) msg.retained.push_back(3 * i + 1);
    wire::Writer w;
    w.varint(150);
    for (std::uint32_t i = 0; i < 150; ++i) w.u32(3 * i + 1);
    pin("Phase1Result", tag(MsgType::phase1_result), msg, w);
  }
  {
    wire::Writer w;
    w.u32(0x01020304);
    w.u32(5);
    w.u32(0xfffffffe);
    pin("MomentsRequest", tag(MsgType::moments_request),
        MomentsRequest{0x01020304, 5, 0xfffffffe}, w);
  }
  {
    wire::Writer w;
    w.u32(17);
    w.u32(0x00abcdef);
    pin("MomentsResponse", tag(MsgType::moments_response),
        MomentsResponse{17, 0x00abcdef}, w);
  }
  {
    wire::Writer w;
    w.varint(3);
    for (std::uint32_t v : {3u, 9u, 300u}) w.u32(v);
    w.u32(4);
    w.u32(5);
    pin("Phase2Result", tag(MsgType::phase2_result),
        Phase2Result{{3, 9, 300}, 4, 5}, w);
  }
  {
    const std::vector<std::uint64_t> words = {1, 0xffffffffffffffffull,
                                              0x8000000000000000ull, 0x2a};
    wire::Writer w;
    w.u32(2);
    w.u32(2);
    w.u32(2);
    w.varint(4);
    for (std::uint64_t v : words) w.u64(v);
    pin("LrPlanes", tag(MsgType::lr_planes), LrPlanes{2, 2, 2, words}, w);
  }
  {
    wire::Writer w;
    w.varint(3);
    for (std::uint32_t v : {4u, 8u, 15u}) w.u32(v);
    pin("Phase3Result", tag(MsgType::phase3_result), Phase3Result{{4, 8, 15}},
        w);
  }
  {
    // A reason past 127 bytes: the length takes a two-byte varint.
    const std::string reason(130, 'x');
    wire::Writer w;
    w.u32(2);
    w.varint(130);
    for (char c : reason) w.u8(static_cast<std::uint8_t>(c));
    pin("AbortNotice", tag(MsgType::abort_notice), AbortNotice{2, reason}, w);
  }
  {
    LdWindow msg{3, std::vector<std::uint32_t>(2 * kLdWindow, 0)};
    msg.counts[kLdWindow] = 7;
    msg.counts.back() = 0xffffffffu;
    wire::Writer w;
    w.u32(3);
    w.varint(2 * kLdWindow);
    for (std::uint32_t v : msg.counts) w.u32(v);
    pin("LdWindow", tag(MsgType::ld_window), msg, w);
  }
  {
    LrMatrices msg;
    msg.entries.push_back({2, stats::LrMatrix(2, 3)});
    msg.entries[0].matrix.at(0, 0) = 1.5;
    msg.entries[0].matrix.at(1, 2) = -0.25;
    msg.entries.push_back({5, stats::LrMatrix(1, 1)});
    msg.entries[1].matrix.at(0, 0) = 3.0;
    msg.tile_index = 6;
    wire::Writer w;
    w.varint(2);
    w.u32(2);
    w.u32(2);
    w.u32(3);
    for (double v : {1.5, 0.0, 0.0, 0.0, 0.0, -0.25}) w.f64(v);
    w.u32(5);
    w.u32(1);
    w.u32(1);
    w.f64(3.0);
    w.u32(6);
    pin("LrMatrices", 0, msg, w);
  }
  return pins;
}

}  // namespace gendpr::core
