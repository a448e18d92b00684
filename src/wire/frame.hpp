// Transport frame codec shared by every socket front-end.
//
// A frame is [u32 len][u32 from][payload] (little-endian), where len covers
// the from field plus the payload. The first frame on every connection is
// the "hello" announcing the dialer's node id: a frame with an empty
// payload. EpollHub's incremental reads parse this layout through
// FrameDecoder.
//
// The decoder is zero-copy on the common path: feed() borrows the caller's
// receive buffer, and frames that land wholly inside one chunk come back as
// BytesView spans into it. Only frames that straddle a chunk boundary are
// stitched together in an internal stash. The borrow discipline is strict:
// after feed(), drain next() until it yields nullopt (which guarantees no
// unconsumed view into the chunk remains) before reusing the receive
// buffer, and consume each Frame::payload before the next next()/feed().
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace gendpr::wire {

/// Frame header size: [u32 len][u32 from].
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound on a single frame's payload. Anything larger is treated as a
/// corrupt stream, not a request for 4 GiB of buffer.
inline constexpr std::uint32_t kMaxFramePayload = 256u * 1024 * 1024;

/// Header for a frame carrying `payload_size` bytes from `from`.
std::array<std::uint8_t, kFrameHeaderBytes> encode_frame_header(
    std::uint32_t from, std::size_t payload_size);

/// Whole frame (header + payload) as one contiguous buffer — the shape a
/// queued nonblocking write wants.
common::Bytes encode_frame(std::uint32_t from, common::BytesView payload);

/// Connection-opening hello from `from`: a frame with an empty payload.
common::Bytes encode_hello(std::uint32_t from);

/// Incremental frame parser over an arbitrary chunking of the byte stream.
/// feed() borrows raw bytes; next() yields completed frames in order as
/// views into either the fed chunk or the decoder's internal stash.
class FrameDecoder {
 public:
  struct Frame {
    std::uint32_t from = 0;
    /// View into the fed chunk (fast path) or the decoder's stash (frame
    /// straddled a chunk boundary). Valid until the next call to next() or
    /// feed() — decrypt or copy before then.
    common::BytesView payload;
    /// True for the connection-opening hello (empty payload). Only
    /// meaningful for the FIRST frame of a connection; established-
    /// connection frames are never re-interpreted as hellos.
    bool is_hello() const noexcept { return payload.empty(); }
  };

  /// Borrows `data` until next() returns nullopt. Any bytes of a previously
  /// fed chunk that next() has not consumed are copied into the stash first,
  /// so feeding early never loses stream bytes.
  void feed(common::BytesView data);

  /// Next completed frame: a Frame when one is fully buffered, nullopt when
  /// more bytes are needed, or Errc::bad_message on a malformed header
  /// (len < 4 or payload over kMaxFramePayload) — the stream is then
  /// unrecoverable and the connection must be dropped. A nullopt return
  /// guarantees the fed chunk is fully consumed (no view into it survives),
  /// so the caller may reuse its receive buffer.
  common::Result<std::optional<Frame>> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const noexcept {
    return stash_.size() + chunk_.size();
  }

 private:
  /// Unconsumed remainder of the chunk passed to the last feed().
  common::BytesView chunk_;
  /// Partial frame carried across chunk boundaries (header + payload
  /// prefix), topped up from chunk_ by next().
  common::Bytes stash_;
  /// Backing storage for the most recently returned straddling frame; keeps
  /// its payload view alive until the next next()/feed().
  common::Bytes stash_frame_;
};

}  // namespace gendpr::wire
