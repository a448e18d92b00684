// Hex decoding for test vectors (FIPS, RFC and NIST known answers). The
// shipped code only encodes hex (common::to_hex).
#pragma once

#include <stdexcept>
#include <string_view>

#include "common/bytes.hpp"

namespace gendpr::common {

namespace detail {
inline int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace detail

/// Decodes a hex string (upper or lower case). Throws std::invalid_argument
/// on odd length or non-hex characters.
inline Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = detail::hex_value(hex[i]);
    const int lo = detail::hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

}  // namespace gendpr::common
