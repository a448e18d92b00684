// Test-only reference X25519: the TweetNaCl field (16 limbs of 16 bits held
// in int64) and its Montgomery ladder. It is slow (about 1 ms per scalar
// multiplication) but small enough to audit line by line, which makes it the
// differential oracle for the radix-2^51 code in src/crypto/x25519.cpp.
#pragma once

#include <cstdint>
#include <cstring>

#include "crypto/x25519.hpp"

namespace gendpr::crypto::reference {

namespace detail {

using Fe = std::int64_t[16];

inline void fe_copy(Fe out, const Fe a) noexcept {
  for (int i = 0; i < 16; ++i) out[i] = a[i];
}

inline void fe_zero(Fe out) noexcept {
  for (int i = 0; i < 16; ++i) out[i] = 0;
}

inline void fe_one(Fe out) noexcept {
  fe_zero(out);
  out[0] = 1;
}

inline void carry(Fe o) noexcept {
  for (int i = 0; i < 16; ++i) {
    o[i] += (1LL << 16);
    const std::int64_t c = o[i] >> 16;
    o[(i + 1) * (i < 15)] += c - 1 + 37 * (c - 1) * (i == 15);
    o[i] -= c << 16;
  }
}

inline void fe_add(Fe o, const Fe a, const Fe b) noexcept {
  for (int i = 0; i < 16; ++i) o[i] = a[i] + b[i];
}

inline void fe_sub(Fe o, const Fe a, const Fe b) noexcept {
  for (int i = 0; i < 16; ++i) o[i] = a[i] - b[i];
}

inline void fe_mul(Fe o, const Fe a, const Fe b) noexcept {
  std::int64_t t[31];
  for (int i = 0; i < 31; ++i) t[i] = 0;
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j) t[i + j] += a[i] * b[j];
  for (int i = 0; i < 15; ++i) t[i] += 38 * t[i + 16];
  for (int i = 0; i < 16; ++i) o[i] = t[i];
  carry(o);
  carry(o);
}

inline void fe_square(Fe o, const Fe a) noexcept { fe_mul(o, a, a); }

inline void fe_cswap(Fe p, Fe q, std::int64_t bit) noexcept {
  const std::int64_t mask = ~(bit - 1);
  for (int i = 0; i < 16; ++i) {
    const std::int64_t t = mask & (p[i] ^ q[i]);
    p[i] ^= t;
    q[i] ^= t;
  }
}

inline void fe_invert(Fe o, const Fe a) noexcept {
  Fe c;
  fe_copy(c, a);
  // a^(p-2) via the standard square-and-multiply ladder for 2^255-21.
  for (int i = 253; i >= 0; --i) {
    fe_square(c, c);
    if (i != 2 && i != 4) fe_mul(c, c, a);
  }
  fe_copy(o, c);
}

inline void fe_pack(std::uint8_t* out, const Fe n) noexcept {
  Fe m, t;
  fe_copy(t, n);
  carry(t);
  carry(t);
  carry(t);
  for (int round = 0; round < 2; ++round) {
    m[0] = t[0] - 0xffed;
    for (int i = 1; i < 15; ++i) {
      m[i] = t[i] - 0xffff - ((m[i - 1] >> 16) & 1);
      m[i - 1] &= 0xffff;
    }
    m[15] = t[15] - 0x7fff - ((m[14] >> 16) & 1);
    const std::int64_t borrow = (m[15] >> 16) & 1;
    m[14] &= 0xffff;
    fe_cswap(t, m, 1 - borrow);
  }
  for (int i = 0; i < 16; ++i) {
    out[2 * i] = static_cast<std::uint8_t>(t[i] & 0xff);
    out[2 * i + 1] = static_cast<std::uint8_t>(t[i] >> 8);
  }
}

inline void fe_unpack(Fe out, const std::uint8_t* in) noexcept {
  for (int i = 0; i < 16; ++i) {
    out[i] = in[2 * i] + (static_cast<std::int64_t>(in[2 * i + 1]) << 8);
  }
  out[15] &= 0x7fff;
}

inline constexpr std::int64_t kA24 = 121665;  // (486662 - 2) / 4

}  // namespace detail

/// scalar * point on the TweetNaCl field; same contract as crypto::x25519.
inline X25519Key x25519(const X25519Key& scalar,
                        const X25519Key& point) noexcept {
  using namespace detail;
  std::uint8_t clamped[32];
  std::memcpy(clamped, scalar.data(), 32);
  clamped[0] &= 248;
  clamped[31] &= 127;
  clamped[31] |= 64;

  Fe x;
  fe_unpack(x, point.data());

  Fe a, b, c, d, e, f;
  fe_one(a);
  fe_copy(b, x);
  fe_zero(c);
  fe_one(d);

  for (int i = 254; i >= 0; --i) {
    const std::int64_t bit = (clamped[i >> 3] >> (i & 7)) & 1;
    fe_cswap(a, b, bit);
    fe_cswap(c, d, bit);
    fe_add(e, a, c);
    fe_sub(a, a, c);
    fe_add(c, b, d);
    fe_sub(b, b, d);
    fe_square(d, e);
    fe_square(f, a);
    fe_mul(a, c, a);
    fe_mul(c, b, e);
    fe_add(e, a, c);
    fe_sub(a, a, c);
    fe_square(b, a);
    fe_sub(c, d, f);
    Fe a24_term;
    fe_zero(a24_term);
    a24_term[0] = kA24;
    fe_mul(a, c, a24_term);
    fe_add(a, a, d);
    fe_mul(c, c, a);
    fe_mul(a, d, f);
    fe_mul(d, b, x);
    fe_square(b, e);
    fe_cswap(a, b, bit);
    fe_cswap(c, d, bit);
  }

  Fe inv_c;
  fe_invert(inv_c, c);
  fe_mul(a, a, inv_c);

  X25519Key out;
  fe_pack(out.data(), a);
  return out;
}

}  // namespace gendpr::crypto::reference
