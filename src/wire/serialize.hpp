// Binary wire format: explicit little-endian fixed-width integers, varints,
// length-prefixed strings/blobs, and homogeneous vectors.
//
// Every protocol message in gendpr/messages.hpp serializes through Writer and
// parses through Reader. Reader never trusts lengths: all reads are
// bounds-checked and return Errc::bad_message on truncation, which the
// failure-injection tests exercise with corrupted and truncated frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace gendpr::wire {

/// Appends typed values to an internal buffer.
class Writer {
 public:
  Writer() = default;

  /// Pre-sizes the buffer for `additional` more bytes; pairs with the
  /// messages' encoded_size() so serialization allocates at most once.
  void reserve(std::size_t additional) {
    buffer_.reserve(buffer_.size() + additional);
  }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128-style unsigned varint (1-10 bytes).
  void varint(std::uint64_t v);
  /// IEEE-754 binary64, little-endian byte order.
  void f64(double v);
  /// varint length prefix + raw bytes.
  void bytes(common::BytesView data);
  void string(const std::string& s);
  void vector_u32(const std::vector<std::uint32_t>& v);
  void vector_u64(const std::vector<std::uint64_t>& v);
  /// Raw bytes with no length prefix (caller knows the framing).
  void raw(common::BytesView data);

  const common::Bytes& buffer() const noexcept { return buffer_; }
  common::Bytes take() && { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  common::Bytes buffer_;
};

/// Bounds-checked sequential parser over a byte view. All accessors return
/// Result and leave the cursor unchanged on failure.
class Reader {
 public:
  explicit Reader(common::BytesView data) noexcept : data_(data) {}

  common::Result<std::uint8_t> u8();
  common::Result<std::uint16_t> u16();
  common::Result<std::uint32_t> u32();
  common::Result<std::uint64_t> u64();
  common::Result<std::uint64_t> varint();
  common::Result<double> f64();
  common::Result<common::Bytes> bytes();
  common::Result<std::string> string();
  common::Result<std::vector<std::uint32_t>> vector_u32();
  common::Result<std::vector<std::uint64_t>> vector_u64();
  /// Reads exactly n raw bytes.
  common::Result<common::Bytes> raw(std::size_t n);

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  common::Error truncated(const char* what) const;

  common::BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace gendpr::wire
