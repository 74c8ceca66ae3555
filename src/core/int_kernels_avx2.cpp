// AVX2 target of the tile GEMM, for x86-64 CPUs without AVX-512 VNNI.
// Every function here carries its own target attribute, so the rest of
// the build keeps the baseline ISA; int_kernels.cpp calls in only after
// __builtin_cpu_supports has confirmed AVX2.
//
// AVX2's u8 x s8 multiply-add (vpmaddubsw) saturates its int16 pair
// sums, so it is not exact. Instead each 16-byte quarter of a tile (4
// columns x 4 steps) is sign-extended to int16 and multiplied against
// the row's four u8 activations, zero-extended to int16 and repeated,
// by vpmaddwd, whose int32 pair sums are exact. Each column then holds
// two partial sums, folded once per block.
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/int_kernels.h"
#include "core/kernel_target.h"

#if defined(__x86_64__)
#include <immintrin.h>

#define FQBERT_AVX2 __attribute__((target("avx2")))

namespace fqbert::core::kernels {

namespace {

constexpr int kQuarters = kTileCols / 4;  // 16-byte pieces of a tile
constexpr int64_t kQuarterBytes = kTileBytes / kQuarters;

/// One register block: R rows x one column tile, 4R ymm accumulators.
/// a16[r * groups + g] holds row r's four u8 activations of group g as
/// 16-bit fields.
template <int R>
FQBERT_AVX2 void block(const uint64_t* a16, int64_t groups, const int8_t* t,
                       const int32_t* corr, int32_t* c, int64_t ldc,
                       int64_t lanes) {
  __m256i acc[R][kQuarters];
FQBERT_UNROLL
  for (int r = 0; r < R; ++r)
FQBERT_UNROLL
    for (int q = 0; q < kQuarters; ++q) acc[r][q] = _mm256_setzero_si256();

  for (int64_t g = 0; g < groups; ++g, t += kTileBytes) {
    __m256i av[R];
FQBERT_UNROLL
    for (int r = 0; r < R; ++r)
      av[r] = _mm256_set1_epi64x(static_cast<long long>(a16[r * groups + g]));
FQBERT_UNROLL
    for (int q = 0; q < kQuarters; ++q) {
      const __m256i w = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(t + kQuarterBytes * q)));
FQBERT_UNROLL
      for (int r = 0; r < R; ++r)
        acc[r][q] = _mm256_add_epi32(acc[r][q], _mm256_madd_epi16(w, av[r]));
    }
  }

  // Quarter q holds columns 4q..4q+3 as pair sums [c c c+1 c+1 | c+2 c+2
  // c+3 c+3]. hadd of two quarters yields columns [0 1 4 5 | 2 3 6 7];
  // swapping the middle 64-bit lanes puts them in order.
  const __m256i c_lo = corr != nullptr
                           ? _mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(corr))
                           : _mm256_setzero_si256();
  const __m256i c_hi = corr != nullptr
                           ? _mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(corr + 8))
                           : _mm256_setzero_si256();
FQBERT_UNROLL
  for (int r = 0; r < R; ++r) {
    const __m256i lo = _mm256_sub_epi32(
        _mm256_permute4x64_epi64(_mm256_hadd_epi32(acc[r][0], acc[r][1]),
                                 0xD8),
        c_lo);
    const __m256i hi = _mm256_sub_epi32(
        _mm256_permute4x64_epi64(_mm256_hadd_epi32(acc[r][2], acc[r][3]),
                                 0xD8),
        c_hi);
    int32_t* crow = c + r * ldc;
    if (lanes == kTileCols) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), lo);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), hi);
    } else {
      alignas(32) int32_t out[kTileCols];
      _mm256_store_si256(reinterpret_cast<__m256i*>(out), lo);
      _mm256_store_si256(reinterpret_cast<__m256i*>(out + 8), hi);
      std::memcpy(crow, out, static_cast<size_t>(lanes) * sizeof(int32_t));
    }
  }
}

constexpr int kRows = 3;  // 12 accumulators + 3 activations + 1 weight
using BlockFn = void (*)(const uint64_t*, int64_t, const int8_t*,
                         const int32_t*, int32_t*, int64_t, int64_t);
constexpr BlockFn kBlocks[kRows] = {&block<1>, &block<2>, &block<3>};

}  // namespace

FQBERT_AVX2 void gemm_avx2(const int8_t* a, int64_t lda, int64_t m, int64_t k,
                           const int8_t* tiles, const int32_t* corr, int64_t n,
                           int32_t* c, int64_t ldc) {
  // Widen the activations once per call: row i, group g becomes the
  // four 16-bit fields u8(a XOR 0x80), zero past k.
  const int64_t groups = padded_depth(k) / kTileDepth;
  static thread_local std::vector<uint64_t> a16;
  a16.resize(static_cast<size_t>(m * groups));
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* row = a + i * lda;
    uint64_t* dst = a16.data() + i * groups;
    for (int64_t g = 0; g < groups; ++g) {
      const int64_t p = g * kTileDepth;
      uint8_t u[kTileDepth] = {0x80, 0x80, 0x80, 0x80};
      std::memcpy(u, row + p,
                  static_cast<size_t>(k - p < kTileDepth ? k - p : kTileDepth));
      dst[g] = uint64_t{uint8_t(u[0] ^ 0x80)} |
               uint64_t{uint8_t(u[1] ^ 0x80)} << 16 |
               uint64_t{uint8_t(u[2] ^ 0x80)} << 32 |
               uint64_t{uint8_t(u[3] ^ 0x80)} << 48;
    }
  }

  // Column tiles outer: a tile column stays in L1 while every row block
  // streams past it.
  const int64_t depth = padded_depth(k);
  for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
    const int64_t lanes = n - j0 < kTileCols ? n - j0 : kTileCols;
    const int32_t* cj = corr != nullptr ? corr + j0 : nullptr;
    for (int64_t i0 = 0; i0 < m; i0 += kRows) {
      const int64_t rows = m - i0 < kRows ? m - i0 : kRows;
      kBlocks[rows - 1](a16.data() + i0 * groups, groups, tiles + j0 * depth,
                        cj, c + i0 * ldc + j0, ldc, lanes);
    }
  }
}

}  // namespace fqbert::core::kernels

#else  // !__x86_64__: kernel_target_supported() never selects this target.

namespace fqbert::core::kernels {

void gemm_avx2(const int8_t*, int64_t, int64_t, int64_t, const int8_t*,
               const int32_t*, int64_t, int32_t*, int64_t) {
  std::abort();
}

}  // namespace fqbert::core::kernels

#endif
