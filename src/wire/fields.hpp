// Field-list codec: a message states its wire layout once, as a static
// field list, and its size, encoding and decoding all walk that list.
//
//   struct MomentsRequest {
//     std::uint32_t request_id, snp_a, snp_b;
//     template <class M, class F>
//     static void fields(M& m, F&& f) { f(m.request_id); f(m.snp_a); ... }
//   };
//
// The walkers below are the only code that knows each field type's format:
// u32 (4 bytes little-endian), vector<u32> and vector<u64> (varint count,
// then the elements), string (varint length, then the bytes), and a vector
// of sub-records (varint count, then each record's own field list). A field
// of any other type T is declared by specializing FieldCodec<T>. Each field
// goes through one bulk Writer/Reader call, with no indirection per field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "wire/serialize.hpp"

namespace gendpr::wire {

/// Format of a field type outside the walkers' own: specializations provide
///   static std::size_t size(const T&);
///   static void write(Writer&, const T&);
///   static common::Status read(Reader&, T&);
template <class T>
struct FieldCodec;

namespace detail {

struct SizeWalker {
  std::size_t bytes = 0;

  void operator()(std::uint32_t) { bytes += 4; }
  void operator()(const std::string& s) {
    bytes += varint_length(s.size()) + s.size();
  }
  void operator()(const std::vector<std::uint32_t>& v) {
    bytes += varint_length(v.size()) + 4 * v.size();
  }
  void operator()(const std::vector<std::uint64_t>& v) {
    bytes += varint_length(v.size()) + 8 * v.size();
  }
  template <class T>
  void operator()(const std::vector<T>& records) {
    bytes += varint_length(records.size());
    for (const T& record : records) T::fields(record, *this);
  }
  template <class T>
  void operator()(const T& field) {
    bytes += FieldCodec<T>::size(field);
  }

 private:
  /// Byte length of Writer::varint(v).
  static constexpr std::size_t varint_length(std::uint64_t v) {
    std::size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }
};

struct EncodeWalker {
  Writer& w;

  void operator()(std::uint32_t v) { w.u32(v); }
  void operator()(const std::string& s) { w.string(s); }
  void operator()(const std::vector<std::uint32_t>& v) { w.vector_u32(v); }
  void operator()(const std::vector<std::uint64_t>& v) { w.vector_u64(v); }
  template <class T>
  void operator()(const std::vector<T>& records) {
    w.varint(records.size());
    for (const T& record : records) T::fields(record, *this);
  }
  template <class T>
  void operator()(const T& field) {
    FieldCodec<T>::write(w, field);
  }
};

/// Reads fields in order until the first failure, which it keeps; every
/// later field is skipped.
struct DecodeWalker {
  Reader& r;
  common::Status status;

  void operator()(std::uint32_t& v) { read(v, &Reader::u32); }
  void operator()(std::string& s) { read(s, &Reader::string); }
  void operator()(std::vector<std::uint32_t>& v) {
    read(v, &Reader::vector_u32);
  }
  void operator()(std::vector<std::uint64_t>& v) {
    read(v, &Reader::vector_u64);
  }
  template <class T>
  void operator()(std::vector<T>& records) {
    // The count is not trusted: each record read either consumes bytes or
    // fails, so the loop ends with the body.
    std::uint64_t count = 0;
    read(count, &Reader::varint);
    for (std::uint64_t i = 0; i < count && status.ok(); ++i) {
      T::fields(records.emplace_back(), *this);
    }
  }
  template <class T>
  void operator()(T& field) {
    if (status.ok()) status = FieldCodec<T>::read(r, field);
  }

 private:
  template <class T>
  void read(T& field, common::Result<T> (Reader::*primitive)()) {
    if (!status.ok()) return;
    auto value = (r.*primitive)();
    if (!value.ok()) {
      status = value.error();
      return;
    }
    field = std::move(value).take();
  }
};

}  // namespace detail

/// Exact byte count encode_into() appends for `msg`.
template <class M>
std::size_t encoded_size(const M& msg) {
  detail::SizeWalker size;
  M::fields(msg, size);
  return size.bytes;
}

template <class M>
void encode_into(Writer& w, const M& msg) {
  detail::EncodeWalker encode{w};
  M::fields(msg, encode);
}

/// `msg`'s body in a buffer sized once.
template <class M>
common::Bytes encode(const M& msg) {
  Writer w;
  w.reserve(encoded_size(msg));
  encode_into(w, msg);
  return std::move(w).take();
}

/// Parses a whole body: every field, then the message's own validate() when
/// it declares one, and no trailing bytes. Fails with Errc::bad_message.
template <class M>
common::Result<M> decode(common::BytesView body) {
  Reader r(body);
  M msg;
  detail::DecodeWalker decode{r, {}};
  M::fields(msg, decode);
  if (!decode.status.ok()) return decode.status.error();
  if constexpr (requires { msg.validate(); }) {
    if (common::Status s = msg.validate(); !s.ok()) return s.error();
  }
  if (!r.exhausted()) {
    return common::make_error(common::Errc::bad_message,
                              "trailing bytes after message");
  }
  return msg;
}

}  // namespace gendpr::wire
