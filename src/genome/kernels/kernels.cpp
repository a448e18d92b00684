#include "genome/kernels/kernels.hpp"

#include <bit>
#include <cstdlib>
#include <cstring>

#include "crypto/cpu_features.hpp"
#include "genome/kernels/kernels_backend.hpp"

namespace gendpr::genome::kernels {

namespace detail {

std::uint64_t popcount_words_portable(const std::uint64_t* words,
                                      std::size_t n) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return count;
}

std::uint64_t and_popcount_words_portable(const std::uint64_t* a,
                                          const std::uint64_t* b,
                                          std::size_t n) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

}  // namespace detail

namespace {

constexpr KernelOps kPortableOps = {
    &detail::popcount_words_portable,
    &detail::and_popcount_words_portable,
};

constexpr KernelOps kAvx2Ops = {
    &detail::popcount_words_avx2,
    &detail::and_popcount_words_avx2,
};

constexpr KernelOps kAvx512Ops = {
    &detail::popcount_words_avx512,
    &detail::and_popcount_words_avx512,
};

KernelBackend best_available_backend() noexcept {
  if (kernel_backend_available(KernelBackend::avx512)) {
    return KernelBackend::avx512;
  }
  if (kernel_backend_available(KernelBackend::avx2)) {
    return KernelBackend::avx2;
  }
  return KernelBackend::portable;
}

}  // namespace

const char* kernel_backend_name(KernelBackend backend) noexcept {
  switch (backend) {
    case KernelBackend::avx2:
      return "avx2";
    case KernelBackend::avx512:
      return "avx512";
    case KernelBackend::portable:
      break;
  }
  return "portable";
}

bool kernel_backend_available(KernelBackend backend) noexcept {
  const crypto::CpuFeatures& cpu = crypto::cpu_features();
  switch (backend) {
    case KernelBackend::portable:
      return true;
    case KernelBackend::avx2:
      return detail::avx2_kernels_compiled() && cpu.avx2;
    case KernelBackend::avx512:
      return detail::avx512_kernels_compiled() && cpu.avx512_popcount;
  }
  return false;
}

KernelBackend default_kernel_backend() noexcept {
  const char* env = std::getenv("GENDPR_KERNEL_BACKEND");
  if (env != nullptr) {
    KernelBackend requested = KernelBackend::portable;
    bool known = true;
    if (std::strcmp(env, "portable") == 0) {
      requested = KernelBackend::portable;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = KernelBackend::avx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      requested = KernelBackend::avx512;
    } else {
      known = false;
    }
    if (known && kernel_backend_available(requested)) return requested;
  }
  return best_available_backend();
}

const KernelOps& kernel_ops_for(KernelBackend backend) noexcept {
  switch (backend) {
    case KernelBackend::avx2:
      if (kernel_backend_available(KernelBackend::avx2)) return kAvx2Ops;
      break;
    case KernelBackend::avx512:
      if (kernel_backend_available(KernelBackend::avx512)) return kAvx512Ops;
      break;
    case KernelBackend::portable:
      break;
  }
  return kPortableOps;
}

KernelBackend active_kernel_backend() noexcept {
  static const KernelBackend backend = default_kernel_backend();
  return backend;
}

const KernelOps& kernel_ops() noexcept {
  static const KernelOps& ops = kernel_ops_for(active_kernel_backend());
  return ops;
}

}  // namespace gendpr::genome::kernels
