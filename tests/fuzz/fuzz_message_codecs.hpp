// Codec fuzz harness: feeds message bodies straight to the decoders. The
// protocol-step harness cannot reach them with a malformed body, since every
// mutated record fails its AEAD tag before it is opened. The first input
// byte picks the message (an envelope type byte, or 0 for LrMatrices) and
// the rest is the body. A body that decodes must re-encode to exactly
// wire::encoded_size() bytes, and those bytes must decode to a message that
// encodes to them again; the encoders write every field in full, so equal
// bytes mean equal messages.
//
// Header-only so the tier-1 smoke test (MessagesTest) and the seed-corpus
// generator run the same checks as the fuzz_message_codecs binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "gendpr/messages.hpp"
#include "wire/fields.hpp"

namespace gendpr::fuzz {

namespace detail {

[[noreturn]] inline void codec_violation(const char* what) {
  std::fprintf(stderr, "message codec contract violated: %s\n", what);
  std::abort();
}

template <class M>
bool check_codec(common::BytesView body) {
  auto decoded = wire::decode<M>(body);
  if (!decoded.ok()) return false;
  wire::Writer encoded;
  wire::encode_into(encoded, decoded.value());
  if (encoded.size() != wire::encoded_size(decoded.value())) {
    codec_violation("encoded_size() differs from the encoding's length");
  }
  auto again = wire::decode<M>(encoded.buffer());
  if (!again.ok()) codec_violation("a re-encoded body fails to decode");
  if (wire::encode(again.value()) != encoded.buffer()) {
    codec_violation("decoding a re-encoded body changed the message");
  }
  return true;
}

}  // namespace detail

/// Runs one input through the decoder its first byte picks. Returns whether
/// the body decoded; aborts on a codec contract violation.
inline bool check_message_codecs(const std::uint8_t* data, std::size_t size) {
  using core::MsgType;
  if (size == 0) return false;
  const common::BytesView body(data + 1, size - 1);
  if (data[0] == 0) return detail::check_codec<core::LrMatrices>(body);
  switch (static_cast<MsgType>(data[0])) {
    case MsgType::study_announce:
      return detail::check_codec<core::StudyAnnounce>(body);
    case MsgType::summary_stats:
      return detail::check_codec<core::SummaryStats>(body);
    case MsgType::phase1_result:
      return detail::check_codec<core::Phase1Result>(body);
    case MsgType::moments_request:
      return detail::check_codec<core::MomentsRequest>(body);
    case MsgType::moments_response:
      return detail::check_codec<core::MomentsResponse>(body);
    case MsgType::phase2_result:
      return detail::check_codec<core::Phase2Result>(body);
    case MsgType::lr_planes:
      return detail::check_codec<core::LrPlanes>(body);
    case MsgType::phase3_result:
      return detail::check_codec<core::Phase3Result>(body);
    case MsgType::abort_notice:
      return detail::check_codec<core::AbortNotice>(body);
    case MsgType::ld_window:
      return detail::check_codec<core::LdWindow>(body);
  }
  return false;
}

}  // namespace gendpr::fuzz
