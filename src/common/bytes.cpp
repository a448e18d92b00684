#include "common/bytes.hpp"

namespace gendpr::common {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

bool ct_equal(BytesView a, BytesView b) noexcept {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  }
  return acc == 0;
}

void secure_zero(std::span<std::uint8_t> data) noexcept {
  volatile std::uint8_t* p = data.data();
  for (std::size_t i = 0; i < data.size(); ++i) p[i] = 0;
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace gendpr::common
