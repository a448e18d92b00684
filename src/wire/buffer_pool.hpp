// Pooled wire buffers: the allocation- and copy-free frame path.
//
// A WireBuffer is one outgoing frame laid out in its final wire shape from
// the start: 8 bytes of frame-header headroom, then the payload. Sealed
// records additionally reserve the 8-byte AEAD sequence header inside the
// payload, so a protocol message is serialized exactly once — directly into
// the position it will occupy on the wire — sealed in place, and handed to
// the hub without any further copy. Storage comes from a BufferPool: a
// thread-safe freelist of byte vectors that keep their capacity across
// frames, so the steady-state send path performs zero heap allocations.
//
// Ownership walks a cycle: pool → session (serialize + seal) → hub (queued
// for the kernel) → pool (returned by ~WireBuffer once written). The pool
// never hands the same storage to two owners; `outstanding` tracks buffers
// currently out of the pool and `copies` counts every payload byte-copy into
// a pooled buffer (`from_payload`, used for the unpooled handshake messages)
// — the quantity `wire.copies_per_frame` reports.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>

#include "common/bytes.hpp"

namespace gendpr::wire {

/// Thread-safe freelist of frame storage buffers. The retained-buffer cap
/// defaults to 64; buffers released past the cap are simply freed.
class BufferPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;         // acquisitions served from the freelist
    std::uint64_t misses = 0;       // acquisitions that had to allocate
    std::uint64_t outstanding = 0;  // buffers currently out of the pool
    std::uint64_t peak_outstanding = 0;
    std::uint64_t copies = 0;  // payload copies made by from_payload
  };

  /// `max_retained` caps the freelist; 0 means the default cap of 64.
  explicit BufferPool(std::size_t max_retained = 0);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A cleared buffer with capacity >= `min_capacity`. Freelist buffers keep
  /// their grown capacity, so a warmed pool reserves nothing on reuse.
  common::Bytes acquire(std::size_t min_capacity);

  /// Returns storage to the freelist (or frees it past the cap).
  void release(common::Bytes storage);

  /// A buffer left the pool for good (its storage was freed instead).
  void forfeit() noexcept;

  /// Accounting hook for the copies `from_payload` makes.
  void note_copy() noexcept;

  Stats stats() const;
  std::size_t max_retained() const noexcept { return max_retained_; }

 private:
  mutable std::mutex mutex_;
  std::deque<common::Bytes> free_;
  std::size_t max_retained_;
  Stats stats_;
};

/// Process-wide fallback pool for paths that were not wired to a per-run
/// pool (tests, the step() driver, standalone sessions).
BufferPool& default_pool();

/// One outgoing frame in final wire layout. Move-only; returns its storage
/// to the owning pool on destruction.
///
///   [0..8)   frame header ([u32 len][u32 from]), written by finish_frame()
///   [8..)    frame payload
///
/// For sealed records the payload is itself [u64 seq][ciphertext][tag]; the
/// seq slot is reserved by `for_record` and filled by
/// `SecureChannel::seal_in_place`.
class WireBuffer {
 public:
  /// Frame-header headroom at the front of the storage.
  static constexpr std::size_t kHeaderBytes = 8;
  /// Additional headroom a sealed record reserves for the AEAD seq field.
  static constexpr std::size_t kSeqBytes = 8;

  WireBuffer() = default;
  ~WireBuffer();

  WireBuffer(WireBuffer&& other) noexcept;
  WireBuffer& operator=(WireBuffer&& other) noexcept;
  WireBuffer(const WireBuffer&) = delete;
  WireBuffer& operator=(const WireBuffer&) = delete;

  /// Pooled buffer whose payload is a copy of `payload` (counted in
  /// BufferPool::Stats::copies): how bytes produced outside the pool, such
  /// as handshake messages, enter the frame path.
  static WireBuffer from_payload(BufferPool& pool, common::BytesView payload);

  /// Adopts an already-encoded whole frame (header included), e.g. a hello
  /// from encode_hello(). finish_frame() becomes a no-op; the storage still
  /// returns to `pool` on destruction.
  static WireBuffer from_frame(BufferPool& pool, common::Bytes frame);

  /// An empty record buffer: payload starts as the 8-byte seq placeholder,
  /// with capacity reserved for `plaintext_capacity` plaintext bytes plus
  /// the 16-byte GCM tag. Serialize the plaintext with writer() and seal
  /// with SecureChannel::seal_in_place.
  static WireBuffer for_record(BufferPool& pool,
                               std::size_t plaintext_capacity);

  /// Fills the frame header for sender `from` over the current payload.
  void finish_frame(std::uint32_t from);

  /// Frees the storage instead of returning it to the pool.
  void discard() noexcept;

  /// Whole wire frame (header + payload); valid only after finish_frame().
  common::BytesView frame() const noexcept {
    return common::BytesView(storage_.data(), storage_.size());
  }

  common::BytesView payload() const noexcept {
    return common::BytesView(storage_.data() + kHeaderBytes, payload_size());
  }
  std::size_t payload_size() const noexcept {
    return storage_.size() - kHeaderBytes;
  }
  bool empty() const noexcept { return storage_.size() <= kHeaderBytes; }
  std::size_t size() const noexcept { return payload_size(); }

  /// Storage handoff for in-place serialization: release, append through a
  /// wire::Writer, adopt back. The storage keeps its header/seq headroom.
  common::Bytes release_storage() &&;
  void adopt_storage(common::Bytes storage) noexcept;

  /// Direct mutable access for in-place sealing.
  std::uint8_t* data() noexcept { return storage_.data(); }
  common::Bytes& storage() noexcept { return storage_; }

 private:
  WireBuffer(BufferPool* pool, common::Bytes storage, bool finished)
      : pool_(pool), storage_(std::move(storage)), finished_(finished) {}

  void reset() noexcept;

  BufferPool* pool_ = nullptr;
  common::Bytes storage_;
  bool finished_ = false;
};

}  // namespace gendpr::wire
