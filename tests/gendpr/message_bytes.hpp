// Owning encodings of protocol messages for tests that build frames by
// hand. The sessions never need them: they encode each message once, behind
// its type byte, into the buffer every recipient's record is sealed from
// (stage_envelope).
#pragma once

#include "common/bytes.hpp"
#include "gendpr/messages.hpp"
#include "wire/fields.hpp"

namespace gendpr::core {

/// The message's body, wire::encoded_size(msg) bytes exactly.
template <typename M>
common::Bytes serialize(const M& msg) {
  return wire::encode(msg);
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
