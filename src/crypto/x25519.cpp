#include "crypto/x25519.hpp"

#ifndef __SIZEOF_INT128__
#error "x25519.cpp needs unsigned __int128 for its 51x51-bit limb products"
#endif

namespace gendpr::crypto {

namespace {

// Field element mod p = 2^255 - 19 in radix 2^51 (the "donna-c64"/ref10
// layout, RFC 7748 §5): value = sum f[i] * 2^(51 i). Limb bounds:
//   fe_unpack     leaves limbs below 2^51.
//   fe_mul        takes limbs below 2^54 and leaves them "carried": below
//                 2^51, except limb 1 below 2^51 + 2^19.
//   fe_add(a, b)  a + b, below 2^53 for carried a and b.
//   fe_sub(a, b)  a + 2p - b, 2p's limbs being 2^52 - 38 then 2^52 - 2: b's
//                 limbs must be at most 2^52 - 38. Carried a, b give < 2^53.
// In the ladder every subtrahend is a carried product and every sum or
// difference goes straight into a product, so no limb reaches 2^54.
using Fe = std::array<std::uint64_t, 5>;
using u128 = unsigned __int128;
constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;
constexpr Fe kA24 = {121665};  // (486662 - 2) / 4
constexpr Fe kTwoP = {2 * kMask51 - 36, 2 * kMask51, 2 * kMask51, 2 * kMask51,
                      2 * kMask51};

Fe fe_add(const Fe& a, const Fe& b) noexcept {
  Fe o{};
  for (int i = 0; i < 5; ++i) o[i] = a[i] + b[i];
  return o;
}

Fe fe_sub(const Fe& a, const Fe& b) noexcept {
  Fe o{};
  for (int i = 0; i < 5; ++i) o[i] = a[i] + kTwoP[i] - b[i];
  return o;
}

// One carry pass. Limb 4's carry re-enters limb 0 times `wrap`: 19 since
// 2^255 = 19 (mod p), or 0 to drop bit 255.
template <class Limb>
void carry(Limb t[5], unsigned wrap) noexcept {
  for (int i = 0; i < 5; ++i) {
    t[(i + 1) % 5] += (i < 4 ? 1 : wrap) * (t[i] >> 51);
    t[i] &= kMask51;
  }
}

// Schoolbook product, wrapped columns times 19. With limbs below 2^54 each
// product is below 2^54 * 19 * 2^54 < 2^113, a column of five below 2^116,
// and carrying adds below 2^66 + 19 * 2^66: no u128 column can overflow.
Fe fe_mul(const Fe& a, const Fe& b) noexcept {
  u128 r[5] = {};
#pragma GCC unroll 5
  for (int i = 0; i < 5; ++i) {
    const u128 ai = a[i];
#pragma GCC unroll 5
    for (int j = 0; j < 5; ++j) {
      r[(i + j) % 5] += ai * (i + j < 5 ? b[j] : 19 * b[j]);
    }
  }
  carry(r, 19);
  r[1] += r[0] >> 51;
  r[0] &= kMask51;
  Fe o{};
  for (int i = 0; i < 5; ++i) o[i] = static_cast<std::uint64_t>(r[i]);
  return o;
}

// a^(2^n) * b.
Fe fe_sqmul(Fe a, int n, const Fe& b) noexcept {
  for (int i = 0; i < n; ++i) a = fe_mul(a, a);
  return fe_mul(a, b);
}

// Swaps p and q if swap is 1, by a mask.
void fe_cswap(Fe& p, Fe& q, std::uint64_t swap) noexcept {
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t = (0 - swap) & (p[i] ^ q[i]);
    p[i] ^= t;
    q[i] ^= t;
  }
}

// a^(p - 2) = a^(2^255 - 21) by ref10's fixed chain of 254 squarings and 11
// multiplications, the same for every input (0 maps to 0). eN = a^(2^N - 1).
Fe fe_invert(const Fe& a) noexcept {
  const Fe a2 = fe_mul(a, a), a9 = fe_sqmul(a2, 2, a), a11 = fe_mul(a9, a2);
  const Fe e5 = fe_sqmul(a11, 1, a9), e10 = fe_sqmul(e5, 5, e5);
  const Fe e20 = fe_sqmul(e10, 10, e10);
  const Fe e50 = fe_sqmul(fe_sqmul(e20, 20, e20), 10, e10);
  const Fe e100 = fe_sqmul(e50, 50, e50);
  const Fe e250 = fe_sqmul(fe_sqmul(e100, 100, e100), 50, e50);
  return fe_sqmul(e250, 5, a11);
}

// The canonical encoding of a carried element h < 2^255 + 2^70 < 2p. The
// carry chain q = (h + 19) >> 255 is 1 exactly when h >= p, and h + 19q with
// bit 255 dropped is h mod p: a reduction without a branch.
X25519Key fe_pack(Fe t) noexcept {
  std::uint64_t q = 19;
  for (int i = 0; i < 5; ++i) q = (t[i] + q) >> 51;
  t[0] += 19 * q;
  carry(t.data(), 0);
  const std::uint64_t w[4] = {t[0] | t[1] << 51, t[1] >> 13 | t[2] << 38,
                              t[2] >> 26 | t[3] << 25, t[3] >> 39 | t[4] << 12};
  X25519Key out{};
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(w[i >> 3] >> (8 * (i & 7)));
  }
  return out;
}

// Reads the low 255 bits (RFC 7748 §5 ignores bit 255) into limbs below 2^51.
// Values in [p, 2^255) stay unreduced and act as their residues.
Fe fe_unpack(const X25519Key& in) noexcept {
  Fe o{};
  for (int i = 0; i < 255; ++i) {
    o[i / 51] |= std::uint64_t{(in[i >> 3] >> (i & 7)) & 1u} << (i % 51);
  }
  return o;
}

}  // namespace

// RFC 7748 §5's Montgomery ladder. The swap bit carries over between steps,
// and only the public loop counter indexes the scalar.
X25519Key x25519(const X25519Key& scalar, const X25519Key& point) noexcept {
  X25519Key k = scalar;
  k[0] &= 248;
  k[31] = (k[31] & 127) | 64;
  const Fe x1 = fe_unpack(point);
  Fe x2 = {1}, z2 = {}, x3 = x1, z3 = {1};
  std::uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    const std::uint64_t bit = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= bit;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = bit;
    const Fe a = fe_add(x2, z2), aa = fe_mul(a, a);
    const Fe b = fe_sub(x2, z2), bb = fe_mul(b, b);
    const Fe e = fe_sub(aa, bb);
    const Fe da = fe_mul(fe_sub(x3, z3), a), cb = fe_mul(fe_add(x3, z3), b);
    const Fe sum = fe_add(da, cb), diff = fe_sub(da, cb);
    x3 = fe_mul(sum, sum);
    z3 = fe_mul(x1, fe_mul(diff, diff));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul(e, kA24)));
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);
  return fe_pack(fe_mul(x2, fe_invert(z2)));
}

X25519Key x25519_base(const X25519Key& scalar) noexcept {
  return x25519(scalar, X25519Key{9});
}

X25519KeyPair x25519_keypair(const X25519Key& secret) noexcept {
  return X25519KeyPair{secret, x25519_base(secret)};
}

}  // namespace gendpr::crypto
