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

#include "genome/kernels/kernels.hpp"

namespace gendpr::genome::kernels::detail {

// kernels.cpp — portable reference implementations (the bit-identity oracle).
void transpose_block_portable(const std::uint8_t* rows,
                              std::size_t row_stride, std::size_t num_rows,
                              std::size_t bytes, std::uint64_t planes[64],
                              std::uint64_t counts[64]);
std::uint64_t popcount_words_portable(const std::uint64_t* words,
                                      std::size_t n);
std::uint64_t and_popcount_words_portable(const std::uint64_t* a,
                                          const std::uint64_t* b,
                                          std::size_t n);
SweepCounts sweep_scores_portable(double* scores, std::size_t n,
                                  const WeightedBits* undo,
                                  const WeightedBits& add, double lo,
                                  double hi, double* band);
void column_sums_portable(const std::uint64_t* const* columns,
                          std::size_t width, std::size_t rows,
                          const double* minor, const double* major,
                          double* sums);

// kernels_avx2.cpp — unpack + vpmovmskb transpose, Harley-Seal + vpshufb
// LUT popcounts, blendv/vpermd LR kernels (compiled with -mavx2).
bool avx2_kernels_compiled() noexcept;
void transpose_block_avx2(const std::uint8_t* rows, std::size_t row_stride,
                          std::size_t num_rows, std::size_t bytes,
                          std::uint64_t planes[64], std::uint64_t counts[64]);
std::uint64_t popcount_words_avx2(const std::uint64_t* words, std::size_t n);
std::uint64_t and_popcount_words_avx2(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n);
SweepCounts sweep_scores_avx2(double* scores, std::size_t n,
                              const WeightedBits* undo,
                              const WeightedBits& add, double lo,
                              double hi, double* band);
void column_sums_avx2(const std::uint64_t* const* columns, std::size_t width,
                      std::size_t rows, const double* minor,
                      const double* major, double* sums);

// kernels_avx512.cpp — gather + unpack + vpmovb2m transpose, vpopcntq
// popcounts, k-mask LR kernels (compiled with
// -mavx512f -mavx512bw -mavx512vpopcntdq).
bool avx512_kernels_compiled() noexcept;
void transpose_block_avx512(const std::uint8_t* rows, std::size_t row_stride,
                            std::size_t num_rows, std::size_t bytes,
                            std::uint64_t planes[64],
                            std::uint64_t counts[64]);
std::uint64_t popcount_words_avx512(const std::uint64_t* words,
                                    std::size_t n);
std::uint64_t and_popcount_words_avx512(const std::uint64_t* a,
                                        const std::uint64_t* b, std::size_t n);
SweepCounts sweep_scores_avx512(double* scores, std::size_t n,
                                const WeightedBits* undo,
                                const WeightedBits& add, double lo,
                                double hi, double* band);
void column_sums_avx512(const std::uint64_t* const* columns,
                        std::size_t width, std::size_t rows,
                        const double* minor, const double* major,
                        double* sums);

}  // namespace gendpr::genome::kernels::detail
