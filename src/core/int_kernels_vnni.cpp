// AVX-512 VNNI target of the tile GEMM, the requantizer and the
// LayerNorm rows. Every function here carries its own target attribute,
// so the rest of the build keeps the baseline ISA; int_kernels.cpp calls
// in only after __builtin_cpu_supports has confirmed the features.
#include <cstdlib>
#include <cstring>

#include "core/int_kernels.h"
#include "core/kernel_target.h"
#include "quant/int_layernorm.h"

#if defined(__x86_64__)
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
// GCC 12 warns about the _mm512_undefined_* source operand inside its
// own 64-bit-lane intrinsics (GCC bug 105593).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>

#define FQBERT_VNNI \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,avx512vnni")))

namespace fqbert::core::kernels {

namespace {

using BlockFn = void (*)(const int8_t* a, int64_t lda, int64_t k,
                         const int8_t* w, int64_t wstride,
                         const int32_t* corr, int32_t* c, int64_t ldc,
                         __mmask16 last_mask);

/// One reduction step of a register block: load T weight tiles once
/// and broadcast each row's 4 activation bytes (already biased to u8)
/// against them.
template <int R, int T>
FQBERT_VNNI __attribute__((always_inline)) inline void step(
    __m512i (&acc)[R][T], const int8_t* w, int64_t wstride,
    const uint32_t (&a4)[R]) {
  __m512i wv[T];
FQBERT_UNROLL
  for (int t = 0; t < T; ++t) wv[t] = _mm512_loadu_si512(w + t * wstride);
FQBERT_UNROLL
  for (int r = 0; r < R; ++r) {
    const __m512i av = _mm512_set1_epi32(static_cast<int>(a4[r]));
FQBERT_UNROLL
    for (int t = 0; t < T; ++t)
      acc[r][t] = _mm512_dpbusd_epi32(acc[r][t], av, wv[t]);
  }
}

/// One register block: R activation rows x T column tiles, R*T zmm
/// accumulators, then the correction and a masked store.
template <int R, int T>
FQBERT_VNNI void block(const int8_t* a, int64_t lda, int64_t k,
                       const int8_t* w, int64_t wstride, const int32_t* corr,
                       int32_t* c, int64_t ldc, __mmask16 last_mask) {
  __m512i acc[R][T];
FQBERT_UNROLL
  for (int r = 0; r < R; ++r)
FQBERT_UNROLL
    for (int t = 0; t < T; ++t) acc[r][t] = _mm512_setzero_si512();

  const int64_t kfull = k & ~int64_t{3};
  uint32_t a4[R];
  for (int64_t p = 0; p < kfull; p += kTileDepth) {
FQBERT_UNROLL
    for (int r = 0; r < R; ++r) {
      std::memcpy(&a4[r], a + r * lda + p, sizeof(uint32_t));
      a4[r] ^= 0x80808080u;
    }
    step<R, T>(acc, w + p * kTileCols, wstride, a4);
  }
  if (kfull < k) {
    // Reduction tail: read only the row's last k % 4 bytes; the padded
    // weight bytes are zero, so the filler lanes add nothing.
    for (int r = 0; r < R; ++r) {
      a4[r] = 0;
      std::memcpy(&a4[r], a + r * lda + kfull,
                  static_cast<size_t>(k - kfull));
      a4[r] ^= 0x80808080u;
    }
    step<R, T>(acc, w + kfull * kTileCols, wstride, a4);
  }

FQBERT_UNROLL
  for (int t = 0; t < T; ++t) {
    const __m512i cv = corr != nullptr
                           ? _mm512_loadu_si512(corr + t * kTileCols)
                           : _mm512_setzero_si512();
    const __mmask16 mask = t == T - 1 ? last_mask : __mmask16{0xFFFF};
FQBERT_UNROLL
    for (int r = 0; r < R; ++r)
      _mm512_mask_storeu_epi32(c + r * ldc + t * kTileCols, mask,
                               _mm512_sub_epi32(acc[r][t], cv));
  }
}

template <int R>
constexpr BlockFn kRow[4] = {&block<R, 1>, &block<R, 2>, &block<R, 3>,
                             &block<R, 4>};
constexpr const BlockFn* kBlocks[4] = {kRow<1>, kRow<2>, kRow<3>, kRow<4>};

}  // namespace

FQBERT_VNNI void gemm_vnni(const int8_t* a, int64_t lda, int64_t m, int64_t k,
                           const int8_t* tiles, const int32_t* corr, int64_t n,
                           int32_t* c, int64_t ldc) {
  const int64_t wstride = padded_depth(k) * kTileCols;  // bytes per tile column
  // Column blocks outer: a block's weight tiles stay in L1 while every
  // row block streams past them.
  for (int64_t j0 = 0; j0 < n; j0 += 4 * kTileCols) {
    const int64_t cols = n - j0 < 4 * kTileCols ? n - j0 : 4 * kTileCols;
    const int64_t tiles_here = (cols + kTileCols - 1) / kTileCols;
    const int64_t last_cols = cols - (tiles_here - 1) * kTileCols;
    const auto last_mask =
        static_cast<__mmask16>((uint32_t{1} << last_cols) - 1);
    const int8_t* w = tiles + j0 * padded_depth(k);
    const int32_t* cj = corr != nullptr ? corr + j0 : nullptr;
    for (int64_t i0 = 0; i0 < m; i0 += 4) {
      const int64_t rows = m - i0 < 4 ? m - i0 : 4;
      kBlocks[rows - 1][tiles_here - 1](a + i0 * lda, lda, k, w, wstride, cj,
                                        c + i0 * ldc + j0, ldc, last_mask);
    }
  }
}

FQBERT_VNNI void requant_vnni(const int32_t* acc, const int32_t* bias,
                              int64_t mult, int shift, int8_t* out,
                              int64_t rows, int64_t cols) {
  // Eight lanes of int64 per step: acc + bias can leave int32, and the
  // product with the Q31 multiplier needs 64 bits. Same arithmetic as
  // the portable loop: round half away from zero, clamp to [-127, 127].
  const __m512i mv = _mm512_set1_epi64(mult);
  const __m512i half = _mm512_set1_epi64(shift > 0 ? int64_t{1} << (shift - 1)
                                                   : 0);
  const __m128i count = _mm_cvtsi32_si128(shift);
  const __m512i hi = _mm512_set1_epi64(127);
  const __m512i lo = _mm512_set1_epi64(-127);
  for (int64_t r = 0; r < rows; ++r) {
    const int32_t* arow = acc + r * cols;
    int8_t* orow = out + r * cols;
    for (int64_t c0 = 0; c0 < cols; c0 += 8) {
      const int64_t left = cols - c0;
      const auto mask = static_cast<__mmask8>(
          left >= 8 ? 0xFF : (uint32_t{1} << left) - 1);
      __m512i v = _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(mask, arow + c0));
      if (bias != nullptr)
        v = _mm512_add_epi64(
            v, _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(mask, bias + c0)));
      v = _mm512_mullo_epi64(v, mv);
      if (shift > 0)
        v = _mm512_sra_epi64(
            _mm512_add_epi64(_mm512_add_epi64(v, half), _mm512_srai_epi64(v, 63)),
            count);
      v = _mm512_max_epi64(_mm512_min_epi64(v, hi), lo);
      _mm512_mask_cvtepi64_storeu_epi8(orow + c0, mask, v);
    }
  }
}

FQBERT_VNNI void layernorm_vnni(const quant::IntLayerNorm& ln,
                                const int32_t* x, int8_t* out, int64_t rows) {
  // IntLayerNorm::apply_row in eight int64 lanes: the same row_mean and
  // inv_std_of, the same products, round half away from zero and clamp
  // to [-127, 127]. Masked lanes of the statistics are zero.
  using quant::IntLayerNorm;
  constexpr int kXhatShift =
      IntLayerNorm::kInvStdFracBits - IntLayerNorm::kXhatFracBits;
  const int64_t h = ln.features();
  const int8_t* gamma = ln.gamma_q().data();
  const int32_t* beta = ln.beta_q().data();
  const int shift = ln.out_requant().shift;
  const __m512i mv = _mm512_set1_epi64(ln.out_requant().multiplier);
  const __m512i half = _mm512_set1_epi64(shift > 0 ? int64_t{1} << (shift - 1)
                                                   : 0);
  const __m128i count = _mm_cvtsi32_si128(shift);
  const __m512i xhat_half = _mm512_set1_epi64(int64_t{1} << (kXhatShift - 1));
  const __m512i hi = _mm512_set1_epi64(127);
  const __m512i lo = _mm512_set1_epi64(-127);
  const auto mask_at = [h](int64_t c0) {
    return static_cast<__mmask8>(h - c0 >= 8 ? 0xFF
                                             : (uint32_t{1} << (h - c0)) - 1);
  };
  for (int64_t r = 0; r < rows; ++r) {
    const int32_t* xr = x + r * h;
    int8_t* orow = out + r * h;
    __m512i acc = _mm512_setzero_si512();
    for (int64_t c0 = 0; c0 < h; c0 += 8)
      acc = _mm512_add_epi64(acc, _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(
                                      mask_at(c0), xr + c0)));
    const __m512i mu = _mm512_set1_epi64(
        IntLayerNorm::row_mean(_mm512_reduce_add_epi64(acc), h));

    acc = _mm512_setzero_si512();
    for (int64_t c0 = 0; c0 < h; c0 += 8) {
      const __mmask8 mask = mask_at(c0);
      const __m512i d = _mm512_maskz_sub_epi64(
          mask, _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(mask, xr + c0)),
          mu);
      acc = _mm512_add_epi64(acc, _mm512_mullo_epi64(d, d));
    }
    const __m512i inv_std = _mm512_set1_epi64(
        IntLayerNorm::inv_std_of(_mm512_reduce_add_epi64(acc), h));

    for (int64_t c0 = 0; c0 < h; c0 += 8) {
      const __mmask8 mask = mask_at(c0);
      const __m512i d = _mm512_sub_epi64(
          _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(mask, xr + c0)), mu);
      __m512i v = _mm512_mullo_epi64(d, inv_std);
      v = _mm512_srai_epi64(
          _mm512_add_epi64(_mm512_add_epi64(v, xhat_half),
                           _mm512_srai_epi64(v, 63)),
          kXhatShift);
      // |d| <= sqrt(var_acc) <= sqrt(1.5 h var), so |xhat| is about
      // 2^10 sqrt(1.5 h) at most, and |xhat * gamma| below 2^7 times
      // that: both fit in int32 for rows of up to 2^27 features, where
      // the 32 x 32 -> 64 vpmuldq is exact (the multiplier is < 2^31).
      v = _mm512_mul_epi32(
          v, _mm512_cvtepi8_epi64(_mm_maskz_loadu_epi8(mask, gamma + c0)));
      v = _mm512_mul_epi32(v, mv);
      if (shift > 0)
        v = _mm512_sra_epi64(
            _mm512_add_epi64(_mm512_add_epi64(v, half), _mm512_srai_epi64(v, 63)),
            count);
      v = _mm512_add_epi64(
          v, _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(mask, beta + c0)));
      v = _mm512_max_epi64(_mm512_min_epi64(v, hi), lo);
      _mm512_mask_cvtepi64_storeu_epi8(orow + c0, mask, v);
    }
  }
}

}  // namespace fqbert::core::kernels

#else  // !__x86_64__: kernel_target_supported() never selects this target.

namespace fqbert::core::kernels {

void gemm_vnni(const int8_t*, int64_t, int64_t, int64_t, const int8_t*,
               const int32_t*, int64_t, int32_t*, int64_t) {
  std::abort();
}
void requant_vnni(const int32_t*, const int32_t*, int64_t, int, int8_t*,
                  int64_t, int64_t) {
  std::abort();
}
void layernorm_vnni(const quant::IntLayerNorm&, const int32_t*, int8_t*,
                    int64_t) {
  std::abort();
}

}  // namespace fqbert::core::kernels

#endif
