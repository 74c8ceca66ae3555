// Integer matrix kernels used by the FQ-BERT inference engine.
//
// These are the *functional* counterparts of the accelerator datapath:
// int8 activations times int2..int8 weights accumulated in int32, then
// requantized. The cycle-level simulator in src/accel executes the same
// arithmetic through its BIM model; tests assert both paths agree
// bit-for-bit.
//
// One right-operand layout serves every matmul: B[n, k] (n outputs, k
// reduction) is stored as int8 TILES, [⌈n/16⌉][⌈k/4⌉][16][4], zero-
// padded. One 64-byte tile holds 4 consecutive reduction steps of 16
// output columns — the operand of one AVX-512 VNNI `vpdpbusd`, and the
// software picture of the paper's processing unit, which broadcasts one
// activation vector to N PEs that each produce a different output
// element (src/accel/pe.h). Weights are packed once when their codes
// are installed; QKᵀ and PV pack their per-head right operand on each
// call.
//
// The GEMM biases activations into u8 (a XOR 0x80 == a + 128) and
// subtracts a per-column correction, so with corr[j] = 128·Σ_p B[j,p]
// it returns the exact signed product. That is an integer identity:
// every target is bit-identical to the scalar oracle in
// tests/fq_oracle.h. The target (AVX-512 VNNI, AVX2, or portable C++,
// all over the same tiles) is chosen once at startup from the CPU's
// feature bits.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/fixed_point.h"

namespace fqbert::quant {
class IntLayerNorm;
}

namespace fqbert::core {

constexpr int64_t kTileCols = 16;   // output columns per tile
constexpr int64_t kTileDepth = 4;   // reduction steps per tile
constexpr int64_t kTileBytes = kTileCols * kTileDepth;

/// n rounded up to whole tiles (the padded column count).
inline int64_t padded_cols(int64_t n) {
  return (n + kTileCols - 1) / kTileCols * kTileCols;
}
/// k rounded up to whole tile depths (the padded reduction length).
inline int64_t padded_depth(int64_t k) {
  return (k + kTileDepth - 1) / kTileDepth * kTileDepth;
}
/// Bytes of the tiles of an [n, k] right operand.
inline size_t tile_bytes(int64_t n, int64_t k) {
  return static_cast<size_t>(padded_cols(n) * padded_depth(k));
}

/// Pack B[n, k] into tiles (tile_bytes(n, k) bytes, padding zeroed).
/// Element (j, p) is read from src[j * row_stride + p * col_stride], so
/// one routine packs a row-major weight matrix (row_stride k,
/// col_stride 1), a strided K head, or a transposed V head. corr, which
/// must be null unless col_stride is 1 (PV needs none), receives
/// padded_cols(n) entries of 128·Σ_p B[j, p] (0 for padding columns).
void pack_tiles(const int8_t* src, int64_t row_stride, int64_t col_stride,
                int64_t n, int64_t k, int8_t* tiles, int32_t* corr);

/// The inverse of pack_tiles into a row-major [n, k] buffer.
void unpack_tiles(const int8_t* tiles, int64_t n, int64_t k, int8_t* dst);

/// corr[j] = 128·Σ_p B[j, p] over already packed tiles (padded_cols(n)
/// entries): the correction of a mapped weight region. Returns false,
/// leaving corr meaningless, when a padding byte is not zero.
bool tile_corrections(const int8_t* tiles, int64_t n, int64_t k,
                      int32_t* corr);

/// c[i * ldc + j] = Σ_p u8(a[i * lda + p] XOR 0x80) · B[j, p] − corr[j]
/// for i < m, j < n, in exact int32 (corr holds padded_cols(n) entries,
/// or is null for all zero). With
/// pack_tiles' correction this is Σ_p a · B; PV instead passes p − 128
/// codes with no correction to multiply by unsigned probabilities.
void gemm_tiles(const int8_t* a, int64_t lda, int64_t m, int64_t k,
                const int8_t* tiles, const int32_t* corr, int64_t n,
                int32_t* c, int64_t ldc);

/// acc[m,n] = sum_k a[m,k] * b[n,k]ᵀ for two activation matrices (QKᵀ:
/// both int8). Packs b into thread-local tiles on each call.
void int_matmul_bt(const std::vector<int8_t>& a, const std::vector<int8_t>& b,
                   std::vector<int32_t>& acc, int64_t m, int64_t k, int64_t n);

/// acc[m,n] = sum_k p[m,k] * v[k,n] with p unsigned 8-bit codes (0..255,
/// stored in int32) and v int8 (probs · V). Packs vᵀ into thread-local
/// tiles on each call.
void int_matmul_pv(const std::vector<int32_t>& p, const std::vector<int8_t>& v,
                   std::vector<int32_t>& acc, int64_t m, int64_t k, int64_t n);

/// Requantize an int32 accumulator tensor (+ per-output-channel bias) to
/// int8 codes: out = clamp(requant(acc + bias)) onto the symmetric
/// [-127, 127] grid. acc + bias is formed in int64.
void requantize_i8(const std::vector<int32_t>& acc,
                   const std::vector<int32_t>& bias_per_col,
                   const quant::Requantizer& rq, std::vector<int8_t>& out,
                   int64_t rows, int64_t cols);

/// ln.apply_row over `rows` consecutive rows of ln.features() codes
/// (x int32 residuals, out int8). The AVX-512 VNNI target runs a SIMD
/// row kernel with the same arithmetic; the others run apply_row.
void layernorm_rows(const quant::IntLayerNorm& ln, const int32_t* x,
                    int8_t* out, int64_t rows);

/// The kernel target this process runs: "avx512_vnni", "avx2" or
/// "portable".
const char* kernel_name();

}  // namespace fqbert::core
