// Runtime-dispatched SIMD kernels for the bit-plane hot loops.
//
// One loop dominates provisioning — the 64x64 bit transpose that turns a
// GDO's packed rows into SNP-major planes — two dominate the count phases
// of wide studies — per-plane popcounts (allele counts) and AND+popcount
// over plane pairs (the one non-marginal LD moment) — and two dominate the
// LR selection: the per-candidate sweep over every row's running score and
// the per-column sums of the gap pass. The transpose and the popcounts are
// pure integer operations; the LR kernels do the same IEEE additions in the
// same order in every lane as the portable loop does per row, so every
// vectorized backend is bit-identical to the portable one. This header is
// the seam: the same pattern as crypto's AEAD engine
// (crypto/gcm_backend.hpp), with each ISA variant compiled in its own
// translation unit under scoped compiler flags and a CPUID-probing
// dispatcher choosing at runtime. The dispatcher, not
// the kernels, checks CPU support; a kernel TU is only entered when its ISA
// is both compiled in and advertised by the executing CPU.
//
// Backend selection: GENDPR_KERNEL_BACKEND=portable|avx2|avx512 overrides;
// an unavailable override falls back to the best available backend, exactly
// like GENDPR_CRYPTO_BACKEND.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gendpr::genome::kernels {

enum class KernelBackend : std::uint8_t {
  portable = 0,  // std::popcount, shift-mask transpose, any CPU
  avx2 = 1,      // Harley-Seal CSA + vpshufb nibble-LUT popcount
  avx512 = 2,    // vpopcntq, vpmovb2m transpose (AVX-512F/BW/VPOPCNTDQ)
};

/// Stable lowercase name, exported as the run report's `kernel.backend`.
const char* kernel_backend_name(KernelBackend backend) noexcept;

/// True when the backend is both compiled into this binary and supported by
/// the executing CPU (including OS XSAVE state for YMM/ZMM registers).
bool kernel_backend_available(KernelBackend backend) noexcept;

/// Resolves GENDPR_KERNEL_BACKEND (re-read on every call), falling back to
/// the best available backend when unset, unknown, or unavailable.
KernelBackend default_kernel_backend() noexcept;

/// One column of the LR selection: row r's bit is bit r % 64 of
/// bits[r / 64], and the row's weight is weight[bit] ({major, minor}).
struct WeightedBits {
  const std::uint64_t* bits = nullptr;
  double weight[2] = {0.0, 0.0};
};

/// What one `KernelOps::sweep_scores` pass counted.
struct SweepCounts {
  std::size_t below = 0;  // updated scores not >= lo
  std::size_t above = 0;  // updated scores not <= hi
  std::size_t band = 0;   // updated scores in [lo, hi], written to `band`
};

/// The dispatch table. All entries are total functions: n == 0 is fine and
/// every backend returns bit-identical results for identical inputs.
struct KernelOps {
  /// Bit transpose of one block of a row-major packed genotype matrix: up
  /// to 64 rows by up to 64 SNPs. Row r < num_rows starts at
  /// rows + r * row_stride, and bit l % 8 of its byte l / 8 is SNP l. Sets
  /// planes[l] (bit r = row r's SNP l) for every l in [0, 64) and adds
  /// popcount(planes[l]) to counts[l]. Reads exactly the first `bytes`
  /// bytes of each of the `num_rows` rows; rows past num_rows and bytes
  /// past `bytes` read as zero. num_rows <= 64, bytes <= 8.
  void (*transpose_block)(const std::uint8_t* rows, std::size_t row_stride,
                          std::size_t num_rows, std::size_t bytes,
                          std::uint64_t planes[64], std::uint64_t counts[64]);
  /// Sum of std::popcount over words[0..n).
  std::uint64_t (*popcount_words)(const std::uint64_t* words, std::size_t n);
  /// Sum of std::popcount(a[i] & b[i]) over [0..n).
  std::uint64_t (*and_popcount_words)(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n);
  /// One pass of the LR selection over n rows' running scores. Each score
  /// becomes fl(fl(s - undo.weight[b']) + add.weight[b]), b' and b being
  /// the row's bits in `undo` and `add`; the subtraction is skipped when
  /// `undo` is null. Counts the updated scores below `lo` and above `hi`
  /// (a NaN would count as both), and writes those in [lo, hi] to
  /// band[0, counts.band) in no promised order; `band` has room for n
  /// doubles.
  SweepCounts (*sweep_scores)(double* scores, std::size_t n,
                              const WeightedBits* undo,
                              const WeightedBits& add, double lo, double hi,
                              double* band);
  /// sums[i] += (bit r of columns[i] ? minor[i] : major[i]) for each
  /// column i in [0, width), adding rows r = 0, 1, ..., rows - 1 in
  /// ascending order; each column holds ceil(rows / 64) words.
  void (*column_sums)(const std::uint64_t* const* columns, std::size_t width,
                      std::size_t rows, const double* minor,
                      const double* major, double* sums);
};

/// Ops for an explicit backend; unavailable backends resolve to portable.
/// Test and bench entry point — hot paths use kernel_ops().
const KernelOps& kernel_ops_for(KernelBackend backend) noexcept;

/// Ops for the process-wide active backend. Resolved once on first use
/// (env + CPUID) and cached: the per-call getenv of default_kernel_backend()
/// would be measurable in the per-pair LD loop.
const KernelOps& kernel_ops() noexcept;

/// The backend kernel_ops() resolved to (for metrics labels).
KernelBackend active_kernel_backend() noexcept;

}  // namespace gendpr::genome::kernels
