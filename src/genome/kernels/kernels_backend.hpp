// Internal contract between the kernel dispatcher and the ISA-specific
// translation units (same shape as crypto/gcm_backend.hpp).
//
// Each SIMD TU is compiled with scoped -m flags, so nothing in this header
// may leak intrinsics; the dispatcher performs all CPU checks and only calls
// an implementation whose *_compiled() probe reports true. When a TU is
// built without its ISA (non-x86 target, compiler too old), it provides
// stubs that are never reached.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gendpr::genome::kernels::detail {

// kernels.cpp — portable reference implementations (the bit-identity oracle).
std::uint64_t popcount_words_portable(const std::uint64_t* words,
                                      std::size_t n);
std::uint64_t and_popcount_words_portable(const std::uint64_t* a,
                                          const std::uint64_t* b,
                                          std::size_t n);

// kernels_avx2.cpp — Harley-Seal + vpshufb LUT (compiled with -mavx2).
bool avx2_kernels_compiled() noexcept;
std::uint64_t popcount_words_avx2(const std::uint64_t* words, std::size_t n);
std::uint64_t and_popcount_words_avx2(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n);

// kernels_avx512.cpp — vpopcntq (compiled with
// -mavx512f -mavx512bw -mavx512vpopcntdq).
bool avx512_kernels_compiled() noexcept;
std::uint64_t popcount_words_avx512(const std::uint64_t* words,
                                    std::size_t n);
std::uint64_t and_popcount_words_avx512(const std::uint64_t* a,
                                        const std::uint64_t* b, std::size_t n);

}  // namespace gendpr::genome::kernels::detail
