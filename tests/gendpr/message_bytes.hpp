// Owning encodings of protocol messages for tests that build frames by
// hand. The sessions never need them: they serialize each message straight
// into a pooled wire buffer behind its type byte (stage_envelope).
#pragma once

#include <utility>

#include "common/bytes.hpp"
#include "gendpr/messages.hpp"
#include "wire/serialize.hpp"

namespace gendpr::core {

/// The message's body, encoded_size() bytes exactly.
template <typename M>
common::Bytes serialize(const M& msg) {
  wire::Writer w;
  w.reserve(msg.encoded_size());
  msg.serialize_into(w);
  return std::move(w).take();
}

/// Frames a message body with its type tag.
inline common::Bytes envelope(MsgType type, common::BytesView body) {
  common::Bytes out;
  out.reserve(1 + body.size());
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace gendpr::core
