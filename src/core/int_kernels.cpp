#include "core/int_kernels.h"

#include <cassert>
#include <cstring>

#include "core/kernel_target.h"
#include "quant/int_layernorm.h"

namespace fqbert::core {

// ---------------------------------------------------------------------------
// Tile packing
// ---------------------------------------------------------------------------

void pack_tiles(const int8_t* src, int64_t row_stride, int64_t col_stride,
                int64_t n, int64_t k, int8_t* tiles, int32_t* corr) {
  const int64_t depth = padded_depth(k);
  const int64_t ncols = padded_cols(n);
  const int64_t kfull = k & ~(kTileDepth - 1);
  assert(col_stride == 1 || corr == nullptr);
  if ((ncols != n || depth != k) && ncols * depth > 0)
    std::memset(tiles, 0, tile_bytes(n, k));
  // Byte (j, p) of column tile j0 sits at group p/4, lane j - j0, step
  // p % 4: walking j by (tile, lane) and p by (group, step) keeps every
  // index an increment.
  for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
    const int64_t lanes = n - j0 < kTileCols ? n - j0 : kTileCols;
    int8_t* tile_col = tiles + j0 * depth;
    int32_t sums[kTileCols] = {};
    if (col_stride == 1) {
      // Rows of B are contiguous (weights, K heads): 4-byte chunks.
      for (int64_t c = 0; c < lanes; ++c) {
        const int8_t* row = src + (j0 + c) * row_stride;
        int8_t* d = tile_col + c * kTileDepth;
        int64_t p0 = 0;
        for (; p0 < kfull; p0 += kTileDepth, d += kTileBytes)
          std::memcpy(d, row + p0, kTileDepth);
        if (p0 < k) std::memcpy(d, row + p0, static_cast<size_t>(k - p0));
        for (int64_t p = 0; p < k; ++p) sums[c] += row[p];
      }
    } else {
      // Columns of B are contiguous (Vᵀ): four source rows interleave
      // into each group.
      int8_t* group = tile_col;
      for (int64_t p0 = 0; p0 < k; p0 += kTileDepth, group += kTileBytes) {
        const int8_t* r0 = src + j0 * row_stride + p0 * col_stride;
        if (p0 + kTileDepth <= k) {
          const int8_t* r1 = r0 + col_stride;
          const int8_t* r2 = r1 + col_stride;
          const int8_t* r3 = r2 + col_stride;
          for (int64_t c = 0; c < lanes; ++c) {
            const int64_t at = c * row_stride;
            group[c * kTileDepth] = r0[at];
            group[c * kTileDepth + 1] = r1[at];
            group[c * kTileDepth + 2] = r2[at];
            group[c * kTileDepth + 3] = r3[at];
          }
        } else {
          for (int64_t q = 0; p0 + q < k; ++q)
            for (int64_t c = 0; c < lanes; ++c)
              group[c * kTileDepth + q] = r0[q * col_stride + c * row_stride];
        }
      }
    }
    if (corr != nullptr)
      for (int64_t c = 0; c < kTileCols; ++c) corr[j0 + c] = 128 * sums[c];
  }
}

void unpack_tiles(const int8_t* tiles, int64_t n, int64_t k, int8_t* dst) {
  const int64_t depth = padded_depth(k);
  const int64_t kfull = k & ~(kTileDepth - 1);
  for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
    const int8_t* tile_col = tiles + j0 * depth;
    for (int64_t c = 0; c < kTileCols && j0 + c < n; ++c) {
      int8_t* d = dst + (j0 + c) * k;
      const int8_t* s = tile_col + c * kTileDepth;
      int64_t p0 = 0;
      for (; p0 < kfull; p0 += kTileDepth, s += kTileBytes)
        std::memcpy(d + p0, s, kTileDepth);
      if (p0 < k) std::memcpy(d + p0, s, static_cast<size_t>(k - p0));
    }
  }
}

bool tile_corrections(const int8_t* tiles, int64_t n, int64_t k,
                      int32_t* corr) {
  // The tiles are [column tile][group][lane][step]: one sequential walk
  // adds every byte to its lane's column.
  const int64_t depth = padded_depth(k);
  const int64_t ncols = padded_cols(n);
  const int8_t* s = tiles;
  for (int64_t j0 = 0; j0 < ncols; j0 += kTileCols) {
    int32_t sums[kTileCols] = {};
    for (int64_t p0 = 0; p0 < depth; p0 += kTileDepth)
      for (int64_t c = 0; c < kTileCols; ++c, s += kTileDepth)
        sums[c] += s[0] + s[1] + s[2] + s[3];
    for (int64_t c = 0; c < kTileCols; ++c) corr[j0 + c] = 128 * sums[c];
  }
  // The padding must be zero: only then do the sums above, and every
  // target's product, see exactly the n x k codes. Padding columns fill
  // the last column tile; padding steps end each column's last group.
  int8_t pad = 0;
  const int64_t last_tile = ncols - kTileCols;
  for (int64_t j = n; j < ncols; ++j)
    for (int64_t p = 0; p < depth; ++p)
      pad |= tiles[last_tile * depth + (p / kTileDepth) * kTileBytes +
                   (j - last_tile) * kTileDepth + p % kTileDepth];
  if (depth != k)
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* group = tiles + (j / kTileCols) * kTileCols * depth +
                            (depth - kTileDepth) * kTileCols +
                            (j % kTileCols) * kTileDepth;
      for (int64_t q = k % kTileDepth; q < kTileDepth; ++q) pad |= group[q];
    }
  return pad == 0;
}

// ---------------------------------------------------------------------------
// Portable target
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t kWideStep = 16;  // int16 operand lengths are multiples

/// s[2r + l] = Σ_p a_r[p] · w_l[p] for R rows (row stride kp) and two
/// weight lanes: every weight load feeds R rows and every activation
/// load two lanes. Masking kp shows the compiler a trip count that is a
/// multiple of 16, so it vectorizes the reduction into widening
/// multiply-adds with no scalar tail, at -O2 as well as -O3.
template <int R>
void reduce_block(const int16_t* a, int64_t kp, const int16_t* w0,
                  const int16_t* w1, int32_t* s) {
  const int64_t len = kp & ~(kWideStep - 1);
  int32_t acc[R][2] = {};
  for (int64_t p = 0; p < len; ++p) {
    const int32_t w0v = w0[p], w1v = w1[p];
    FQBERT_UNROLL
    for (int r = 0; r < R; ++r) {
      acc[r][0] += a[r * kp + p] * w0v;
      acc[r][1] += a[r * kp + p] * w1v;
    }
  }
  for (int r = 0; r < R; ++r) {
    s[2 * r] = acc[r][0];
    s[2 * r + 1] = acc[r][1];
  }
}

constexpr void (*kReduceBlock[4])(const int16_t*, int64_t, const int16_t*,
                                  const int16_t*, int32_t*) = {
    &reduce_block<1>, &reduce_block<2>, &reduce_block<3>, &reduce_block<4>};

void gemm_portable(const int8_t* a, int64_t lda, int64_t m, int64_t k,
                   const int8_t* tiles, const int32_t* corr, int64_t n,
                   int32_t* c, int64_t ldc) {
  // The contract over int16 copies, zero-padded to a multiple of 16:
  // the rows once per call as u8(a XOR 0x80), and each column tile once,
  // lane-major, so every reduction runs over contiguous operands.
  const int64_t kp = (k + kWideStep - 1) / kWideStep * kWideStep;
  const int64_t depth = padded_depth(k);
  static thread_local std::vector<int16_t> wide_a, wide_w;
  wide_a.resize(static_cast<size_t>(m * kp));
  wide_w.resize(static_cast<size_t>(kTileCols * kp));
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* row = a + i * lda;
    int16_t* d = wide_a.data() + i * kp;
    for (int64_t p = 0; p < k; ++p) d[p] = static_cast<uint8_t>(row[p] ^ 0x80);
    for (int64_t p = k; p < kp; ++p) d[p] = 0;
  }

  for (int64_t j0 = 0; j0 < n; j0 += kTileCols) {
    const int64_t lanes = n - j0 < kTileCols ? n - j0 : kTileCols;
    const int8_t* t = tiles + j0 * depth;
    for (int64_t p0 = 0; p0 < depth; p0 += kTileDepth, t += kTileBytes)
      for (int64_t l = 0; l < kTileCols; ++l)
        for (int64_t q = 0; q < kTileDepth; ++q)
          wide_w[l * kp + p0 + q] = t[l * kTileDepth + q];
    for (int64_t l = 0; l < kTileCols; ++l)
      for (int64_t p = depth; p < kp; ++p) wide_w[l * kp + p] = 0;

    for (int64_t i0 = 0; i0 < m; i0 += 4) {
      const int64_t rows = m - i0 < 4 ? m - i0 : 4;
      for (int64_t l = 0; l < lanes; l += 2) {
        int32_t s[8];
        kReduceBlock[rows - 1](wide_a.data() + i0 * kp, kp,
                               wide_w.data() + l * kp,
                               wide_w.data() + (l + 1) * kp, s);
        for (int64_t r = 0; r < rows; ++r) {
          int32_t* crow = c + (i0 + r) * ldc + j0 + l;
          crow[0] = s[2 * r] - (corr != nullptr ? corr[j0 + l] : 0);
          if (l + 1 < lanes)
            crow[1] = s[2 * r + 1] - (corr != nullptr ? corr[j0 + l + 1] : 0);
        }
      }
    }
  }
}

void requant_portable(const int32_t* acc, const int32_t* bias, int64_t mult,
                      int shift, int8_t* out, int64_t rows, int64_t cols) {
  // Branch-free: (acc + bias) * mult in int64, rounded half away from
  // zero by the shift, clamped to [-127, 127].
  const int64_t half = shift > 0 ? (int64_t{1} << (shift - 1)) : 0;
  for (int64_t r = 0; r < rows; ++r) {
    const int32_t* arow = acc + r * cols;
    int8_t* orow = out + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      const int64_t v =
          (static_cast<int64_t>(arow[c]) + (bias ? bias[c] : 0)) * mult;
      orow[c] = quant::clamp_i8(
          shift > 0 ? quant::rounding_shift_right_branchless(v, shift, half)
                    : v);
    }
  }
}

void layernorm_portable(const quant::IntLayerNorm& ln, const int32_t* x,
                        int8_t* out, int64_t rows) {
  const int64_t h = ln.features();
  for (int64_t r = 0; r < rows; ++r) ln.apply_row(x + r * h, out + r * h);
}

struct Ops {
  kernels::GemmFn gemm;
  kernels::RequantFn requant;
  kernels::LayerNormFn layernorm;
};

// Indexed by KernelTarget. AVX2 keeps the portable requantizer and
// LayerNorm rows: both need 64-bit lanes, and AVX2 has no 64-bit
// multiply.
constexpr Ops kOps[] = {
    {&gemm_portable, &requant_portable, &layernorm_portable},
    {&kernels::gemm_avx2, &requant_portable, &layernorm_portable},
    {&kernels::gemm_vnni, &kernels::requant_vnni, &kernels::layernorm_vnni},
};

const Ops& ops_of(KernelTarget t) { return kOps[static_cast<int>(t)]; }

thread_local const Ops* t_override = nullptr;

const Ops& active_ops() {
  static const Ops& startup = ops_of(startup_kernel_target());
  return t_override != nullptr ? *t_override : startup;
}

}  // namespace

// ---------------------------------------------------------------------------
// Target selection
// ---------------------------------------------------------------------------

const char* kernel_target_name(KernelTarget t) {
  switch (t) {
    case KernelTarget::kAvx512Vnni:
      return "avx512_vnni";
    case KernelTarget::kAvx2:
      return "avx2";
    case KernelTarget::kPortable:
      break;
  }
  return "portable";
}

bool kernel_target_supported(KernelTarget t) {
  if (t == KernelTarget::kPortable) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (t == KernelTarget::kAvx2) return __builtin_cpu_supports("avx2");
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

KernelTarget startup_kernel_target() {
  static const KernelTarget target = [] {
    for (const KernelTarget t :
         {KernelTarget::kAvx512Vnni, KernelTarget::kAvx2})
      if (kernel_target_supported(t)) return t;
    return KernelTarget::kPortable;
  }();
  return target;
}

const char* kernel_name() {
  return kernel_target_name(startup_kernel_target());
}

ScopedKernelTarget::ScopedKernelTarget(KernelTarget t) : prev_(t_override) {
  assert(kernel_target_supported(t));
  t_override = &ops_of(t);
}

ScopedKernelTarget::~ScopedKernelTarget() {
  t_override = static_cast<const Ops*>(prev_);
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

void gemm_tiles(const int8_t* a, int64_t lda, int64_t m, int64_t k,
                const int8_t* tiles, const int32_t* corr, int64_t n,
                int32_t* c, int64_t ldc) {
  active_ops().gemm(a, lda, m, k, tiles, corr, n, c, ldc);
}

namespace {

// Per-thread packing scratch of the vector entry points below.
struct PackScratch {
  std::vector<int8_t> tiles, a8;
  std::vector<int32_t> corr;
};
thread_local PackScratch t_pack;

}  // namespace

void int_matmul_bt(const std::vector<int8_t>& a, const std::vector<int8_t>& b,
                   std::vector<int32_t>& acc, int64_t m, int64_t k,
                   int64_t n) {
  assert(static_cast<int64_t>(a.size()) == m * k);
  assert(static_cast<int64_t>(b.size()) == n * k);
  acc.resize(static_cast<size_t>(m * n));
  PackScratch& s = t_pack;
  s.tiles.resize(tile_bytes(n, k));
  s.corr.resize(static_cast<size_t>(padded_cols(n)));
  pack_tiles(b.data(), k, 1, n, k, s.tiles.data(), s.corr.data());
  gemm_tiles(a.data(), k, m, k, s.tiles.data(), s.corr.data(), n, acc.data(),
             n);
}

void int_matmul_pv(const std::vector<int32_t>& p, const std::vector<int8_t>& v,
                   std::vector<int32_t>& acc, int64_t m, int64_t k,
                   int64_t n) {
  assert(static_cast<int64_t>(p.size()) == m * k);
  assert(static_cast<int64_t>(v.size()) == k * n);
  acc.resize(static_cast<size_t>(m * n));
  PackScratch& s = t_pack;
  // p - 128 as int8: the GEMM's XOR 0x80 turns it back into the
  // unsigned probability, so no correction applies.
  const size_t count = p.size();
  s.a8.resize(count);
  const int32_t* probs = p.data();
  int8_t* a8 = s.a8.data();
  for (size_t i = 0; i < count; ++i) {
    assert(probs[i] >= 0 && probs[i] <= 255);
    a8[i] = static_cast<int8_t>(probs[i] - 128);
  }
  s.tiles.resize(tile_bytes(n, k));
  pack_tiles(v.data(), 1, n, n, k, s.tiles.data(), nullptr);
  gemm_tiles(s.a8.data(), k, m, k, s.tiles.data(), nullptr, n, acc.data(), n);
}

void requantize_i8(const std::vector<int32_t>& acc,
                   const std::vector<int32_t>& bias_per_col,
                   const quant::Requantizer& rq, std::vector<int8_t>& out,
                   int64_t rows, int64_t cols) {
  assert(static_cast<int64_t>(acc.size()) == rows * cols);
  assert(bias_per_col.empty() ||
         static_cast<int64_t>(bias_per_col.size()) == cols);
  out.resize(static_cast<size_t>(rows * cols));
  active_ops().requant(acc.data(),
                       bias_per_col.empty() ? nullptr : bias_per_col.data(),
                       rq.multiplier, rq.shift, out.data(), rows, cols);
}

void layernorm_rows(const quant::IntLayerNorm& ln, const int32_t* x,
                    int8_t* out, int64_t rows) {
  active_ops().layernorm(ln, x, out, rows);
}

}  // namespace fqbert::core
