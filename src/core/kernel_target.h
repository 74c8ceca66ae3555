// Kernel target selection for src/core/int_kernels (internal header: the
// engine and its tests include it; nothing else should).
//
// Three targets run the same tile GEMM, requantizer and LayerNorm rows:
// AVX-512 VNNI, AVX2 (x86-64 CPUs without VNNI) and portable C++
// (everything else).
// The process runs the best one its CPU supports, chosen once from
// __builtin_cpu_supports; there is no flag, variable or config field
// that selects it. ScopedKernelTarget lets a test or bench run its own
// thread on another supported target to compare them.
#pragma once

#include <cstdint>

namespace fqbert::quant {
class IntLayerNorm;
}

namespace fqbert::core {

enum class KernelTarget { kPortable, kAvx2, kAvx512Vnni };

inline constexpr KernelTarget kAllKernelTargets[] = {
    KernelTarget::kPortable, KernelTarget::kAvx2, KernelTarget::kAvx512Vnni};

/// "portable" / "avx2" / "avx512_vnni".
const char* kernel_target_name(KernelTarget t);

/// True when this CPU (and OS) can run `t`.
bool kernel_target_supported(KernelTarget t);

/// The target every thread runs unless a ScopedKernelTarget overrides it.
KernelTarget startup_kernel_target();

/// Runs the calling thread's kernels on `t` (which must be supported)
/// until destroyed, then restores the previous choice. Test hook.
class ScopedKernelTarget {
 public:
  explicit ScopedKernelTarget(KernelTarget t);
  ~ScopedKernelTarget();
  ScopedKernelTarget(const ScopedKernelTarget&) = delete;
  ScopedKernelTarget& operator=(const ScopedKernelTarget&) = delete;

 private:
  const void* prev_;
};

// Kernel register blocks are arrays indexed by loop counters with trip
// counts <= 4: full unrolling keeps them in registers, and lets the
// vectorizer see the loop around them.
#if defined(__clang__)
#define FQBERT_UNROLL _Pragma("unroll")
#else
#define FQBERT_UNROLL _Pragma("GCC unroll 4")
#endif

namespace kernels {

// Per-target entry points behind gemm_tiles / requantize_i8 /
// layernorm_rows (same contracts as those; `mult` and `shift` come from
// a Requantizer).
using GemmFn = void (*)(const int8_t* a, int64_t lda, int64_t m, int64_t k,
                        const int8_t* tiles, const int32_t* corr, int64_t n,
                        int32_t* c, int64_t ldc);
using RequantFn = void (*)(const int32_t* acc, const int32_t* bias,
                           int64_t mult, int shift, int8_t* out,
                           int64_t rows, int64_t cols);
using LayerNormFn = void (*)(const quant::IntLayerNorm& ln, const int32_t* x,
                             int8_t* out, int64_t rows);

void gemm_avx2(const int8_t* a, int64_t lda, int64_t m, int64_t k,
               const int8_t* tiles, const int32_t* corr, int64_t n,
               int32_t* c, int64_t ldc);
void gemm_vnni(const int8_t* a, int64_t lda, int64_t m, int64_t k,
               const int8_t* tiles, const int32_t* corr, int64_t n,
               int32_t* c, int64_t ldc);
void requant_vnni(const int32_t* acc, const int32_t* bias, int64_t mult,
                  int shift, int8_t* out, int64_t rows, int64_t cols);
void layernorm_vnni(const quant::IntLayerNorm& ln, const int32_t* x,
                    int8_t* out, int64_t rows);

}  // namespace kernels

}  // namespace fqbert::core
