// Property tests of the incremental frame codec against arbitrary stream
// chunkings: the decoder must recover the identical frame sequence whether
// the kernel delivers the byte stream one byte at a time, split mid-header
// at every possible offset, or coalesced into a single read — and it must
// honor the pooled-receive-buffer borrow discipline (a nullopt from next()
// means the fed chunk may be reused, even when a frame straddled it).
#include "wire/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace gendpr::wire {
namespace {

struct ExpectedFrame {
  std::uint32_t from = 0;
  common::Bytes payload;
};

/// A small heterogeneous conversation: hello, empty frame, short frames,
/// and one payload larger than any single chunk used below.
std::vector<ExpectedFrame> test_frames() {
  std::vector<ExpectedFrame> frames;
  frames.push_back({7, {}});  // classic empty hello
  frames.push_back({7, {0x01}});
  common::Bytes medium(57);
  for (std::size_t i = 0; i < medium.size(); ++i) {
    medium[i] = static_cast<unsigned char>(i * 3 + 1);
  }
  frames.push_back({2, medium});
  common::Bytes large(4096 + 13);
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<unsigned char>((i * 7) ^ (i >> 8));
  }
  frames.push_back({9, large});
  frames.push_back({7, {0xAA, 0xBB}});
  return frames;
}

common::Bytes encode_stream(const std::vector<ExpectedFrame>& frames) {
  common::Bytes stream;
  for (const ExpectedFrame& frame : frames) {
    const common::Bytes encoded = encode_frame(
        frame.from, common::BytesView(frame.payload.data(),
                                      frame.payload.size()));
    stream.insert(stream.end(), encoded.begin(), encoded.end());
  }
  return stream;
}

/// Feeds `stream` to a fresh decoder in chunks cut at `cuts` (ascending
/// offsets), draining after every feed, and returns the decoded frames.
/// Every payload is copied out before the next feed/next, per the borrow
/// discipline.
std::vector<ExpectedFrame> decode_chunked(
    const common::Bytes& stream, const std::vector<std::size_t>& cuts) {
  FrameDecoder decoder;
  std::vector<ExpectedFrame> decoded;
  std::size_t begin = 0;
  std::vector<std::size_t> bounds = cuts;
  bounds.push_back(stream.size());
  for (std::size_t end : bounds) {
    decoder.feed(common::BytesView(stream.data() + begin, end - begin));
    for (;;) {
      auto frame = decoder.next();
      EXPECT_TRUE(frame.ok()) << frame.error().to_string();
      if (!frame.ok() || !frame.value().has_value()) break;
      decoded.push_back(
          {frame.value()->from,
           common::Bytes(frame.value()->payload.begin(),
                         frame.value()->payload.end())});
    }
    begin = end;
  }
  return decoded;
}

void expect_same(const std::vector<ExpectedFrame>& actual,
                 const std::vector<ExpectedFrame>& expected,
                 const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].from, expected[i].from) << label << " frame " << i;
    EXPECT_EQ(actual[i].payload, expected[i].payload)
        << label << " frame " << i;
  }
}

TEST(FrameCodecTest, SplitAtEveryOffsetRecoversTheStream) {
  const std::vector<ExpectedFrame> frames = test_frames();
  const common::Bytes stream = encode_stream(frames);
  // Two-chunk delivery with the boundary at every byte offset: exercises a
  // header split at each of its 8 positions and a payload split everywhere
  // else. O(n^2) in stream size, so the large frame keeps this meaningful
  // without making it slow.
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    expect_same(decode_chunked(stream, {cut}), frames,
                "cut at " + std::to_string(cut));
  }
}

TEST(FrameCodecTest, ByteAtATimeRecoversTheStream) {
  const std::vector<ExpectedFrame> frames = test_frames();
  const common::Bytes stream = encode_stream(frames);
  std::vector<std::size_t> cuts;
  for (std::size_t i = 1; i < stream.size(); ++i) cuts.push_back(i);
  expect_same(decode_chunked(stream, cuts), frames, "byte-at-a-time");
}

TEST(FrameCodecTest, CoalescedSingleChunkRecoversTheStream) {
  const std::vector<ExpectedFrame> frames = test_frames();
  const common::Bytes stream = encode_stream(frames);
  expect_same(decode_chunked(stream, {}), frames, "coalesced");
}

TEST(FrameCodecTest, StraddlingFramesSurvivePooledBufferReuse) {
  // The hubs recycle ONE receive buffer across reads: after next() returns
  // nullopt the previous chunk's storage is overwritten by the next recv.
  // Frames that straddled the boundary must have been stashed, not
  // borrowed. Simulated here by copying each chunk into the same reused
  // buffer and poisoning it before the next feed.
  const std::vector<ExpectedFrame> frames = test_frames();
  const common::Bytes stream = encode_stream(frames);
  for (const std::size_t chunk_size : {1u, 3u, 7u, 64u, 1000u}) {
    FrameDecoder decoder;
    std::vector<ExpectedFrame> decoded;
    common::Bytes recv_buffer(chunk_size);
    for (std::size_t begin = 0; begin < stream.size(); begin += chunk_size) {
      const std::size_t len = std::min(chunk_size, stream.size() - begin);
      // Poison, then fill: any stale borrowed view would read garbage.
      std::fill(recv_buffer.begin(), recv_buffer.end(),
                static_cast<unsigned char>(0xEE));
      std::memcpy(recv_buffer.data(), stream.data() + begin, len);
      decoder.feed(common::BytesView(recv_buffer.data(), len));
      for (;;) {
        auto frame = decoder.next();
        ASSERT_TRUE(frame.ok()) << frame.error().to_string();
        if (!frame.value().has_value()) break;
        decoded.push_back(
            {frame.value()->from,
             common::Bytes(frame.value()->payload.begin(),
                           frame.value()->payload.end())});
      }
    }
    expect_same(decoded, frames, "chunk size " + std::to_string(chunk_size));
    EXPECT_EQ(decoder.buffered(), 0u) << "chunk size " << chunk_size;
  }
}

TEST(FrameCodecTest, HelloFramesDecodeStudyIds) {
  // Only the empty-payload frame is a hello. An 8-byte payload (the shape
  // of the retired study-id hello) is an ordinary data frame.
  FrameDecoder decoder;
  common::Bytes stream = encode_hello(3);
  const common::Bytes eight = {1, 2, 3, 4, 5, 6, 7, 8};
  const common::Bytes named = encode_frame(4, eight);
  stream.insert(stream.end(), named.begin(), named.end());
  decoder.feed(common::BytesView(stream.data(), stream.size()));

  auto hello = decoder.next();
  ASSERT_TRUE(hello.ok());
  ASSERT_TRUE(hello.value().has_value());
  EXPECT_EQ(hello.value()->from, 3u);
  EXPECT_TRUE(hello.value()->is_hello());

  auto eight_bytes = decoder.next();
  ASSERT_TRUE(eight_bytes.ok());
  ASSERT_TRUE(eight_bytes.value().has_value());
  EXPECT_EQ(eight_bytes.value()->from, 4u);
  EXPECT_EQ(eight_bytes.value()->payload.size(), 8u);
  EXPECT_FALSE(eight_bytes.value()->is_hello());
}

TEST(FrameCodecTest, MalformedHeaderIsUnrecoverable) {
  // len < 4 cannot cover the from field.
  {
    FrameDecoder decoder;
    const common::Bytes bad = {0x03, 0, 0, 0, 1, 0, 0, 0};
    decoder.feed(common::BytesView(bad.data(), bad.size()));
    EXPECT_FALSE(decoder.next().ok());
  }
  // A length over kMaxFramePayload is corruption, not an allocation request.
  {
    FrameDecoder decoder;
    common::Bytes bad(kFrameHeaderBytes, 0);
    const std::uint32_t len = kMaxFramePayload + 4 + 1;
    std::memcpy(bad.data(), &len, sizeof(len));
    decoder.feed(common::BytesView(bad.data(), bad.size()));
    EXPECT_FALSE(decoder.next().ok());
  }
  // The malformed header is detected even when it arrives a byte at a time.
  {
    FrameDecoder decoder;
    const common::Bytes bad = {0x02, 0, 0, 0, 1, 0, 0, 0};
    bool failed = false;
    for (unsigned char byte : bad) {
      decoder.feed(common::BytesView(&byte, 1));
      auto frame = decoder.next();
      if (!frame.ok()) {
        failed = true;
        break;
      }
      EXPECT_FALSE(frame.value().has_value());
    }
    EXPECT_TRUE(failed);
  }
}

TEST(FrameCodecTest, EncodedHeaderRoundTrips) {
  const auto header = encode_frame_header(0xCAFEBABE, 12);
  FrameDecoder decoder;
  common::Bytes frame(header.begin(), header.end());
  frame.resize(frame.size() + 12, 0x5A);
  decoder.feed(common::BytesView(frame.data(), frame.size()));
  auto decoded = decoder.next();
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.value().has_value());
  EXPECT_EQ(decoded.value()->from, 0xCAFEBABEu);
  EXPECT_EQ(decoded.value()->payload.size(), 12u);
}

}  // namespace
}  // namespace gendpr::wire
