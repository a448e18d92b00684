#include "wire/serialize.hpp"

#include <cstring>
#include <limits>

namespace gendpr::wire {

using common::Errc;
using common::Error;
using common::Result;

void Writer::u8(std::uint8_t v) { buffer_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::bytes(common::BytesView data) {
  varint(data.size());
  raw(data);
}

void Writer::string(const std::string& s) {
  varint(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Writer::vector_u32(const std::vector<std::uint32_t>& v) {
  varint(v.size());
  for (std::uint32_t x : v) u32(x);
}

void Writer::vector_u64(const std::vector<std::uint64_t>& v) {
  varint(v.size());
  for (std::uint64_t x : v) u64(x);
}

void Writer::raw(common::BytesView data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

Error Reader::truncated(const char* what) const {
  return common::make_error(Errc::bad_message,
                            std::string("truncated while reading ") + what);
}

Result<std::uint8_t> Reader::u8() {
  if (remaining() < 1) return truncated("u8");
  return data_[pos_++];
}

Result<std::uint16_t> Reader::u16() {
  if (remaining() < 2) return truncated("u16");
  const auto v =
      static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

Result<std::uint32_t> Reader::u32() {
  if (remaining() < 4) return truncated("u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
  pos_ += 4;
  return v;
}

Result<std::uint64_t> Reader::u64() {
  if (remaining() < 8) return truncated("u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
  pos_ += 8;
  return v;
}

Result<std::uint64_t> Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  std::size_t cursor = pos_;
  while (cursor < data_.size()) {
    const std::uint8_t byte = data_[cursor++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7f) > 1)) {
      return common::make_error(Errc::bad_message, "varint overflow");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      pos_ = cursor;
      return v;
    }
    shift += 7;
  }
  return truncated("varint");
}

Result<double> Reader::f64() {
  auto bits = u64();
  if (!bits.ok()) return bits.error();
  double v;
  std::memcpy(&v, &bits.value(), sizeof(v));
  return v;
}

Result<common::Bytes> Reader::bytes() {
  const std::size_t saved = pos_;
  auto len = varint();
  if (!len.ok()) return len.error();
  if (len.value() > remaining()) {
    pos_ = saved;
    return truncated("bytes body");
  }
  common::Bytes out(data_.begin() + pos_,
                    data_.begin() + pos_ + len.value());
  pos_ += len.value();
  return out;
}

Result<std::string> Reader::string() {
  auto raw_bytes = bytes();
  if (!raw_bytes.ok()) return raw_bytes.error();
  return std::string(raw_bytes.value().begin(), raw_bytes.value().end());
}

Result<std::vector<std::uint32_t>> Reader::vector_u32() {
  const std::size_t saved = pos_;
  auto len = varint();
  if (!len.ok()) return len.error();
  if (len.value() > remaining() / 4) {
    pos_ = saved;
    return truncated("vector_u32 body");
  }
  std::vector<std::uint32_t> out;
  out.reserve(len.value());
  for (std::uint64_t i = 0; i < len.value(); ++i) {
    out.push_back(u32().value());  // length pre-validated above
  }
  return out;
}

Result<std::vector<std::uint64_t>> Reader::vector_u64() {
  const std::size_t saved = pos_;
  auto len = varint();
  if (!len.ok()) return len.error();
  if (len.value() > remaining() / 8) {
    pos_ = saved;
    return truncated("vector_u64 body");
  }
  std::vector<std::uint64_t> out;
  out.reserve(len.value());
  for (std::uint64_t i = 0; i < len.value(); ++i) out.push_back(u64().value());
  return out;
}

Result<common::Bytes> Reader::raw(std::size_t n) {
  if (remaining() < n) return truncated("raw");
  common::Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

}  // namespace gendpr::wire
