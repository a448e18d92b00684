// AES-256 block cipher (FIPS 197).
//
// Only the raw forward block transform lives here: GCM runs AES in counter
// mode, so nothing decrypts a block. Authenticated encryption is provided
// by crypto/gcm.hpp on top. Verified against the FIPS 197 appendix C.3
// known-answer vector.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace gendpr::crypto {

inline constexpr std::size_t kAes256KeySize = 32;
inline constexpr std::size_t kAesBlockSize = 16;

using AesKey = std::array<std::uint8_t, kAes256KeySize>;
using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

/// AES-256 with an expanded key schedule held in the object. The schedule is
/// zeroized on destruction.
class Aes256 {
 public:
  /// AES-256 is 14 rounds; the schedule holds kRounds + 1 round keys.
  static constexpr int kRounds = 14;
  static constexpr std::size_t kScheduleBytes =
      kAesBlockSize * (kRounds + 1);

  explicit Aes256(common::BytesView key);
  ~Aes256();

  Aes256(const Aes256&) = delete;
  Aes256& operator=(const Aes256&) = delete;

  void encrypt_block(const std::uint8_t in[kAesBlockSize],
                     std::uint8_t out[kAesBlockSize]) const noexcept;

  /// Encrypts four independent blocks with interleaved state. A single
  /// T-table block is latency-bound on the L1 load chain; four blocks in
  /// flight let the loads pipeline, which is what the portable CTR mode
  /// batches for. `in`/`out` hold 4 * kAesBlockSize bytes.
  void encrypt4_blocks(const std::uint8_t in[4 * kAesBlockSize],
                       std::uint8_t out[4 * kAesBlockSize]) const noexcept;

  /// Copies the encryption round keys in FIPS byte order — the exact layout
  /// the AES-NI kernels load with unaligned 128-bit reads. `out` must hold
  /// kScheduleBytes bytes.
  void export_schedule(std::uint8_t* out) const noexcept;

 private:
  // 15 round keys of 16 bytes each, stored as 60 32-bit words.
  std::array<std::uint32_t, 4 * (kRounds + 1)> round_keys_{};
};

}  // namespace gendpr::crypto
