#include "crypto/aes256.hpp"

#include <cstring>
#include <stdexcept>

namespace gendpr::crypto {

namespace {

// Forward S-box (FIPS 197 figure 7).
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

std::uint8_t xtime(std::uint8_t x) noexcept {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) noexcept {
  std::uint8_t result = 0;
  while (b != 0) {
    if (b & 1) result = static_cast<std::uint8_t>(result ^ a);
    a = xtime(a);
    b >>= 1;
  }
  return result;
}

// Encryption T-tables (fused SubBytes+ShiftRows+MixColumns), built once from
// the S-box at static-initialization time. Te0[x] packs the MixColumns column
// {02,01,01,03}*S[x]; Te1..Te3 are byte rotations of Te0.
struct EncTables {
  std::uint32_t te0[256];
  std::uint32_t te1[256];
  std::uint32_t te2[256];
  std::uint32_t te3[256];

  EncTables() noexcept {
    for (int i = 0; i < 256; ++i) {
      const std::uint8_t s = kSbox[i];
      const std::uint8_t s2 = xtime(s);
      const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
      te0[i] = (std::uint32_t{s2} << 24) | (std::uint32_t{s} << 16) |
               (std::uint32_t{s} << 8) | std::uint32_t{s3};
      te1[i] = (te0[i] >> 8) | (te0[i] << 24);
      te2[i] = (te0[i] >> 16) | (te0[i] << 16);
      te3[i] = (te0[i] >> 24) | (te0[i] << 8);
    }
  }
};

const EncTables& enc_tables() noexcept {
  static const EncTables tables;
  return tables;
}

std::uint32_t sub_word(std::uint32_t w) noexcept {
  return (std::uint32_t{kSbox[(w >> 24) & 0xff]} << 24) |
         (std::uint32_t{kSbox[(w >> 16) & 0xff]} << 16) |
         (std::uint32_t{kSbox[(w >> 8) & 0xff]} << 8) |
         std::uint32_t{kSbox[w & 0xff]};
}

std::uint32_t rot_word(std::uint32_t w) noexcept {
  return (w << 8) | (w >> 24);
}

}  // namespace

Aes256::Aes256(common::BytesView key) {
  if (key.size() != kAes256KeySize) {
    throw std::invalid_argument("Aes256: key must be 32 bytes");
  }
  constexpr int nk = 8;  // key length in words
  constexpr int total_words = 4 * (kRounds + 1);

  for (int i = 0; i < nk; ++i) {
    round_keys_[i] = (std::uint32_t{key[4 * i]} << 24) |
                     (std::uint32_t{key[4 * i + 1]} << 16) |
                     (std::uint32_t{key[4 * i + 2]} << 8) |
                     std::uint32_t{key[4 * i + 3]};
  }
  std::uint32_t rcon = 0x01000000;
  for (int i = nk; i < total_words; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ rcon;
      rcon = std::uint32_t{gf_mul(static_cast<std::uint8_t>(rcon >> 24), 2)}
             << 24;
    } else if (i % nk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
}

Aes256::~Aes256() {
  common::secure_zero(std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(round_keys_.data()),
      round_keys_.size() * sizeof(std::uint32_t)));
}

void Aes256::export_schedule(std::uint8_t* out) const noexcept {
  for (std::size_t i = 0; i < round_keys_.size(); ++i) {
    const std::uint32_t w = round_keys_[i];
    out[4 * i + 0] = static_cast<std::uint8_t>(w >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(w >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(w >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(w);
  }
}

void Aes256::encrypt_block(const std::uint8_t in[kAesBlockSize],
                           std::uint8_t out[kAesBlockSize]) const noexcept {
  const EncTables& t = enc_tables();
  const std::uint32_t* rk = round_keys_.data();

  std::uint32_t s0 = (std::uint32_t{in[0]} << 24) |
                     (std::uint32_t{in[1]} << 16) |
                     (std::uint32_t{in[2]} << 8) | in[3];
  std::uint32_t s1 = (std::uint32_t{in[4]} << 24) |
                     (std::uint32_t{in[5]} << 16) |
                     (std::uint32_t{in[6]} << 8) | in[7];
  std::uint32_t s2 = (std::uint32_t{in[8]} << 24) |
                     (std::uint32_t{in[9]} << 16) |
                     (std::uint32_t{in[10]} << 8) | in[11];
  std::uint32_t s3 = (std::uint32_t{in[12]} << 24) |
                     (std::uint32_t{in[13]} << 16) |
                     (std::uint32_t{in[14]} << 8) | in[15];
  s0 ^= rk[0];
  s1 ^= rk[1];
  s2 ^= rk[2];
  s3 ^= rk[3];

  std::uint32_t t0, t1, t2, t3;
  for (int round = 1; round < kRounds; ++round) {
    rk += 4;
    t0 = t.te0[s0 >> 24] ^ t.te1[(s1 >> 16) & 0xff] ^
         t.te2[(s2 >> 8) & 0xff] ^ t.te3[s3 & 0xff] ^ rk[0];
    t1 = t.te0[s1 >> 24] ^ t.te1[(s2 >> 16) & 0xff] ^
         t.te2[(s3 >> 8) & 0xff] ^ t.te3[s0 & 0xff] ^ rk[1];
    t2 = t.te0[s2 >> 24] ^ t.te1[(s3 >> 16) & 0xff] ^
         t.te2[(s0 >> 8) & 0xff] ^ t.te3[s1 & 0xff] ^ rk[2];
    t3 = t.te0[s3 >> 24] ^ t.te1[(s0 >> 16) & 0xff] ^
         t.te2[(s1 >> 8) & 0xff] ^ t.te3[s2 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  rk += 4;
  t0 = (std::uint32_t{kSbox[s0 >> 24]} << 24) |
       (std::uint32_t{kSbox[(s1 >> 16) & 0xff]} << 16) |
       (std::uint32_t{kSbox[(s2 >> 8) & 0xff]} << 8) |
       std::uint32_t{kSbox[s3 & 0xff]};
  t1 = (std::uint32_t{kSbox[s1 >> 24]} << 24) |
       (std::uint32_t{kSbox[(s2 >> 16) & 0xff]} << 16) |
       (std::uint32_t{kSbox[(s3 >> 8) & 0xff]} << 8) |
       std::uint32_t{kSbox[s0 & 0xff]};
  t2 = (std::uint32_t{kSbox[s2 >> 24]} << 24) |
       (std::uint32_t{kSbox[(s3 >> 16) & 0xff]} << 16) |
       (std::uint32_t{kSbox[(s0 >> 8) & 0xff]} << 8) |
       std::uint32_t{kSbox[s1 & 0xff]};
  t3 = (std::uint32_t{kSbox[s3 >> 24]} << 24) |
       (std::uint32_t{kSbox[(s0 >> 16) & 0xff]} << 16) |
       (std::uint32_t{kSbox[(s1 >> 8) & 0xff]} << 8) |
       std::uint32_t{kSbox[s2 & 0xff]};
  t0 ^= rk[0];
  t1 ^= rk[1];
  t2 ^= rk[2];
  t3 ^= rk[3];

  for (int i = 0; i < 4; ++i) {
    out[4 * 0 + i] = static_cast<std::uint8_t>(t0 >> (24 - 8 * i));
    out[4 * 1 + i] = static_cast<std::uint8_t>(t1 >> (24 - 8 * i));
    out[4 * 2 + i] = static_cast<std::uint8_t>(t2 >> (24 - 8 * i));
    out[4 * 3 + i] = static_cast<std::uint8_t>(t3 >> (24 - 8 * i));
  }
}

void Aes256::encrypt4_blocks(const std::uint8_t in[4 * kAesBlockSize],
                             std::uint8_t out[4 * kAesBlockSize]) const
    noexcept {
  const EncTables& t = enc_tables();
  const std::uint32_t* rk = round_keys_.data();

  std::uint32_t s[4][4];
  for (int b = 0; b < 4; ++b) {
    const std::uint8_t* p = in + kAesBlockSize * b;
    for (int w = 0; w < 4; ++w) {
      s[b][w] = ((std::uint32_t{p[4 * w]} << 24) |
                 (std::uint32_t{p[4 * w + 1]} << 16) |
                 (std::uint32_t{p[4 * w + 2]} << 8) |
                 std::uint32_t{p[4 * w + 3]}) ^
                rk[w];
    }
  }

  std::uint32_t n[4][4];
  for (int round = 1; round < kRounds; ++round) {
    rk += 4;
    for (int b = 0; b < 4; ++b) {
      n[b][0] = t.te0[s[b][0] >> 24] ^ t.te1[(s[b][1] >> 16) & 0xff] ^
                t.te2[(s[b][2] >> 8) & 0xff] ^ t.te3[s[b][3] & 0xff] ^ rk[0];
      n[b][1] = t.te0[s[b][1] >> 24] ^ t.te1[(s[b][2] >> 16) & 0xff] ^
                t.te2[(s[b][3] >> 8) & 0xff] ^ t.te3[s[b][0] & 0xff] ^ rk[1];
      n[b][2] = t.te0[s[b][2] >> 24] ^ t.te1[(s[b][3] >> 16) & 0xff] ^
                t.te2[(s[b][0] >> 8) & 0xff] ^ t.te3[s[b][1] & 0xff] ^ rk[2];
      n[b][3] = t.te0[s[b][3] >> 24] ^ t.te1[(s[b][0] >> 16) & 0xff] ^
                t.te2[(s[b][1] >> 8) & 0xff] ^ t.te3[s[b][2] & 0xff] ^ rk[3];
    }
    for (int b = 0; b < 4; ++b) {
      for (int w = 0; w < 4; ++w) s[b][w] = n[b][w];
    }
  }

  rk += 4;
  for (int b = 0; b < 4; ++b) {
    n[b][0] = ((std::uint32_t{kSbox[s[b][0] >> 24]} << 24) |
               (std::uint32_t{kSbox[(s[b][1] >> 16) & 0xff]} << 16) |
               (std::uint32_t{kSbox[(s[b][2] >> 8) & 0xff]} << 8) |
               std::uint32_t{kSbox[s[b][3] & 0xff]}) ^
              rk[0];
    n[b][1] = ((std::uint32_t{kSbox[s[b][1] >> 24]} << 24) |
               (std::uint32_t{kSbox[(s[b][2] >> 16) & 0xff]} << 16) |
               (std::uint32_t{kSbox[(s[b][3] >> 8) & 0xff]} << 8) |
               std::uint32_t{kSbox[s[b][0] & 0xff]}) ^
              rk[1];
    n[b][2] = ((std::uint32_t{kSbox[s[b][2] >> 24]} << 24) |
               (std::uint32_t{kSbox[(s[b][3] >> 16) & 0xff]} << 16) |
               (std::uint32_t{kSbox[(s[b][0] >> 8) & 0xff]} << 8) |
               std::uint32_t{kSbox[s[b][1] & 0xff]}) ^
              rk[2];
    n[b][3] = ((std::uint32_t{kSbox[s[b][3] >> 24]} << 24) |
               (std::uint32_t{kSbox[(s[b][0] >> 16) & 0xff]} << 16) |
               (std::uint32_t{kSbox[(s[b][1] >> 8) & 0xff]} << 8) |
               std::uint32_t{kSbox[s[b][2] & 0xff]}) ^
              rk[3];
    std::uint8_t* q = out + kAesBlockSize * b;
    for (int w = 0; w < 4; ++w) {
      for (int i = 0; i < 4; ++i) {
        q[4 * w + i] = static_cast<std::uint8_t>(n[b][w] >> (24 - 8 * i));
      }
    }
  }
}

}  // namespace gendpr::crypto
