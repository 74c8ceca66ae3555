// Binary (de)serialization of the quantized engine.
//
// Two on-disk formats share the metadata layout:
//
//   FQBERT01 — streamed. Weight codes travel int4-packed inline; load()
//   reads and unpacks them into owned storage.
//
//   FQBERT03 — mapped. The file is [magic | u64 weights_base | metadata
//   | weight region]. Each QuantLinear's metadata record carries a
//   relative offset into the weight region instead of inline codes, and
//   the region stores each layer's int8 TILES exactly as the GEMM reads
//   them ([⌈out/16⌉][⌈in/4⌉][16][4], zero-padded, tile_bytes(out, in)
//   bytes, see int_kernels.h) at 64-byte alignment, for every bit-width.
//   load_mapped() mmaps the file read-only and points the engine's
//   weight views straight into the mapping: loading is O(page faults)
//   plus one read of the tiles for the column correction (which also
//   refuses a region whose padding bytes are not zero), and every
//   process serving the same file shares one physical copy of the
//   weight pages. FQBERT02 (the retired row-major int8/int16 region)
//   is refused with an explicit error rather than misread.
//
// The integer kernels (softmax LUT, GELU LUT, IntLayerNorm,
// requantizers) are deterministic functions of the stored scales and
// are rebuilt at load, so a round-trip engine is bit-exact in both
// formats.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/fq_bert.h"

namespace fqbert::core {

namespace {

constexpr char kMagic[8] = {'F', 'Q', 'B', 'E', 'R', 'T', '0', '1'};
constexpr char kMagicMapped[8] = {'F', 'Q', 'B', 'E', 'R', 'T', '0', '3'};
constexpr char kMagicRetired[8] = {'F', 'Q', 'B', 'E', 'R', 'T', '0', '2'};
constexpr size_t kWeightAlign = 64;
// Bound on a layer's in/out read from a file, checked before the
// dimensions are padded or multiplied, so tile_bytes cannot overflow.
constexpr int64_t kMaxDim = int64_t{1} << 28;

[[noreturn]] void throw_retired(const std::string& path) {
  throw std::runtime_error(
      "FQBERT02 engine file (retired row-major weight layout) is no longer "
      "supported; re-save it with save_mapped (FQBERT03): " + path);
}

size_t align_up(size_t v, size_t a) { return (v + a - 1) / a * a; }

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return v;
}

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  write_pod<uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::istream& is) {
  const auto n = read_pod<uint64_t>(is);
  std::vector<T> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  return v;
}

/// Bounds-checked cursor over the mapped file's metadata section. Any
/// overrun poisons `ok` and subsequent reads return zero values, so the
/// caller can validate once at the end (mirrors how istream sticks in a
/// failed state).
struct ByteReader {
  const uint8_t* p = nullptr;
  size_t n = 0;
  size_t off = 0;
  bool ok = true;

  bool take(void* dst, size_t bytes) {
    if (!ok || bytes > n - off) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p + off, bytes);
    off += bytes;
    return true;
  }
};

template <typename T>
T read_pod(ByteReader& r) {
  T v{};
  r.take(&v, sizeof(T));
  return v;
}

template <typename T>
std::vector<T> read_vec(ByteReader& r) {
  const auto count = read_pod<uint64_t>(r);
  if (!r.ok || count > (r.n - r.off) / sizeof(T)) {
    r.ok = false;
    return {};
  }
  std::vector<T> v(static_cast<size_t>(count));
  r.take(v.data(), static_cast<size_t>(count) * sizeof(T));
  return v;
}

void write_tensor(std::ostream& os, const Tensor& t) {
  write_pod<uint64_t>(os, t.rank());
  for (size_t i = 0; i < t.rank(); ++i) write_pod<int64_t>(os, t.dim(i));
  write_vec(os, t.storage());
}

template <typename Reader>
Tensor read_tensor(Reader& is) {
  const auto rank = read_pod<uint64_t>(is);
  Shape shape(rank);
  for (auto& d : shape) d = read_pod<int64_t>(is);
  return Tensor(shape, read_vec<float>(is));
}

void write_quant_linear(std::ostream& os, const QuantLinear& q) {
  write_pod<int64_t>(os, q.in);
  write_pod<int64_t>(os, q.out);
  write_pod<int32_t>(os, q.weight_bits);
  write_pod<double>(os, q.w_scale);
  write_pod<double>(os, q.in_scale);
  write_pod<double>(os, q.out_scale);
  // Weights travel packed (the deployable format streams nibbles).
  write_pod<uint64_t>(os, static_cast<uint64_t>(q.in * q.out));
  write_vec(os, q.packed_weights());
  write_vec(os, q.bias_q);
}

QuantLinear read_quant_linear(std::istream& is) {
  QuantLinear q;
  q.in = read_pod<int64_t>(is);
  q.out = read_pod<int64_t>(is);
  q.weight_bits = read_pod<int32_t>(is);
  q.w_scale = read_pod<double>(is);
  q.in_scale = read_pod<double>(is);
  q.out_scale = read_pod<double>(is);
  const auto n_codes = read_pod<uint64_t>(is);
  const auto packed = read_vec<uint8_t>(is);
  std::vector<int8_t> codes =
      q.weight_bits <= 4 ? quant::unpack_int4(packed, n_codes)
                         : std::vector<int8_t>(packed.begin(), packed.end());
  // Packing reads exactly in * out codes; anything else is a corrupt file.
  if (!is || q.in < 0 || q.out < 0 || q.in > kMaxDim || q.out > kMaxDim ||
      codes.size() != static_cast<size_t>(q.in * q.out))
    throw std::runtime_error("corrupt FQ-BERT model file");
  q.set_codes(codes);
  q.bias_q = read_vec<int32_t>(is);
  q.rq = quant::Requantizer::from_scale(q.out_scale /
                                        (q.in_scale * q.w_scale));
  return q;
}

/// FQBERT03 QuantLinear record: same scalar prefix as v1, then the
/// tile blob's relative offset in the weight region instead of the
/// inline packed codes.
void write_quant_linear_mapped(std::ostream& os, const QuantLinear& q,
                               uint64_t rel_offset) {
  write_pod<int64_t>(os, q.in);
  write_pod<int64_t>(os, q.out);
  write_pod<int32_t>(os, q.weight_bits);
  write_pod<double>(os, q.w_scale);
  write_pod<double>(os, q.in_scale);
  write_pod<double>(os, q.out_scale);
  write_pod<uint64_t>(os, rel_offset);
  write_vec(os, q.bias_q);
}

void write_config(std::ostream& os, const nn::BertConfig& c) {
  for (int64_t v : {c.vocab_size, c.hidden, c.num_layers, c.num_heads,
                    c.ffn_dim, c.max_seq_len, c.num_segments, c.num_classes})
    write_pod<int64_t>(os, v);
}

template <typename Reader>
nn::BertConfig read_config(Reader& is) {
  nn::BertConfig c;
  c.vocab_size = read_pod<int64_t>(is);
  c.hidden = read_pod<int64_t>(is);
  c.num_layers = read_pod<int64_t>(is);
  c.num_heads = read_pod<int64_t>(is);
  c.ffn_dim = read_pod<int64_t>(is);
  c.max_seq_len = read_pod<int64_t>(is);
  c.num_segments = read_pod<int64_t>(is);
  c.num_classes = read_pod<int64_t>(is);
  return c;
}

void write_fq_config(std::ostream& os, const FqQuantConfig& q) {
  write_pod<int32_t>(os, q.weight_bits);
  write_pod<int32_t>(os, q.act_bits);
  write_pod<int32_t>(os, static_cast<int32_t>(q.clip));
  write_pod<double>(os, q.clip_percentile);
  write_pod<uint8_t>(os, q.quantize_weights_acts ? 1 : 0);
  write_pod<uint8_t>(os, q.quantize_scales ? 1 : 0);
  write_pod<uint8_t>(os, q.quantize_softmax ? 1 : 0);
  write_pod<uint8_t>(os, q.quantize_layernorm ? 1 : 0);
}

template <typename Reader>
FqQuantConfig read_fq_config(Reader& is) {
  FqQuantConfig q;
  q.weight_bits = read_pod<int32_t>(is);
  q.act_bits = read_pod<int32_t>(is);
  q.clip = static_cast<quant::ClipMode>(read_pod<int32_t>(is));
  q.clip_percentile = read_pod<double>(is);
  q.quantize_weights_acts = read_pod<uint8_t>(is) != 0;
  q.quantize_scales = read_pod<uint8_t>(is) != 0;
  q.quantize_softmax = read_pod<uint8_t>(is) != 0;
  q.quantize_layernorm = read_pod<uint8_t>(is) != 0;
  return q;
}

}  // namespace

bool FqBertModel::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os.write(kMagic, sizeof(kMagic));
  write_config(os, config_);
  write_fq_config(os, quant_config_);
  write_pod<double>(os, emb_scale_);
  write_tensor(os, tok_table_);
  write_tensor(os, pos_table_);
  write_tensor(os, seg_table_);
  write_vec(os, emb_ln_gamma_);
  write_vec(os, emb_ln_beta_);

  write_pod<uint64_t>(os, layers_.size());
  for (const FqEncoderLayer& l : layers_) {
    for (double s : {l.in_scale, l.q_scale, l.k_scale, l.v_scale,
                     l.ctx_scale, l.attn_out_scale, l.ffn_in_scale,
                     l.pre_gelu_scale, l.ffn_mid_scale, l.ffn_out_scale,
                     l.out_scale})
      write_pod<double>(os, s);
    for (const QuantLinear* q :
         {&l.wq, &l.wk, &l.wv, &l.wo, &l.ffn1, &l.ffn2})
      write_quant_linear(os, *q);
    write_vec(os, l.ln1_gamma);
    write_vec(os, l.ln1_beta);
    write_vec(os, l.ln2_gamma);
    write_vec(os, l.ln2_beta);
  }

  write_tensor(os, pooler_w_);
  write_tensor(os, classifier_w_);
  write_vec(os, pooler_b_);
  write_vec(os, classifier_b_);
  return static_cast<bool>(os);
}

FqBertModel FqBertModel::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("not an FQ-BERT model file: " + path);

  FqBertModel m;
  m.config_ = read_config(is);
  m.quant_config_ = read_fq_config(is);
  m.weight_bits_ = m.quant_config_.weight_bits;
  m.emb_scale_ = read_pod<double>(is);
  m.tok_table_ = read_tensor(is);
  m.pos_table_ = read_tensor(is);
  m.seg_table_ = read_tensor(is);
  m.emb_ln_gamma_ = read_vec<float>(is);
  m.emb_ln_beta_ = read_vec<float>(is);

  const auto n_layers = read_pod<uint64_t>(is);
  m.layers_.resize(n_layers);
  for (FqEncoderLayer& l : m.layers_) {
    l.hidden = m.config_.hidden;
    l.ffn_dim = m.config_.ffn_dim;
    l.num_heads = m.config_.num_heads;
    l.head_dim = m.config_.head_dim();
    l.use_int_softmax = m.quant_config_.quantize_softmax;
    l.use_int_layernorm = m.quant_config_.quantize_layernorm;
    for (double* s : {&l.in_scale, &l.q_scale, &l.k_scale, &l.v_scale,
                      &l.ctx_scale, &l.attn_out_scale, &l.ffn_in_scale,
                      &l.pre_gelu_scale, &l.ffn_mid_scale, &l.ffn_out_scale,
                      &l.out_scale})
      *s = read_pod<double>(is);
    for (QuantLinear* q : {&l.wq, &l.wk, &l.wv, &l.wo, &l.ffn1, &l.ffn2})
      *q = read_quant_linear(is);
    l.ln1_gamma = read_vec<float>(is);
    l.ln1_beta = read_vec<float>(is);
    l.ln2_gamma = read_vec<float>(is);
    l.ln2_beta = read_vec<float>(is);
    // The derived integer kernels are functions of the scales above.
    rebuild_derived_kernels(l);
  }

  m.pooler_w_ = read_tensor(is);
  m.classifier_w_ = read_tensor(is);
  m.pooler_b_ = read_vec<float>(is);
  m.classifier_b_ = read_vec<float>(is);
  if (!is) throw std::runtime_error("truncated FQ-BERT model file: " + path);
  return m;
}

bool FqBertModel::save_mapped(const std::string& path) const {
  // Pass 1: lay out the weight region. Each tile blob lands 64-byte
  // aligned at a relative offset, so a mapped view of it is usable with
  // zero rewriting.
  std::vector<const QuantLinear*> linears;
  for (const FqEncoderLayer& l : layers_)
    for (const QuantLinear* q :
         {&l.wq, &l.wk, &l.wv, &l.wo, &l.ffn1, &l.ffn2})
      linears.push_back(q);
  std::vector<uint64_t> rel(linears.size());
  size_t region = 0;
  for (size_t i = 0; i < linears.size(); ++i) {
    region = align_up(region, kWeightAlign);
    rel[i] = region;
    region += linears[i]->weight_bytes();
  }

  // Pass 2: metadata (v1 field order, mapped QuantLinear records) into
  // a memory buffer so weights_base is known before anything hits disk.
  std::ostringstream meta;
  write_config(meta, config_);
  write_fq_config(meta, quant_config_);
  write_pod<double>(meta, emb_scale_);
  write_tensor(meta, tok_table_);
  write_tensor(meta, pos_table_);
  write_tensor(meta, seg_table_);
  write_vec(meta, emb_ln_gamma_);
  write_vec(meta, emb_ln_beta_);
  write_pod<uint64_t>(meta, layers_.size());
  size_t li = 0;
  for (const FqEncoderLayer& l : layers_) {
    for (double s : {l.in_scale, l.q_scale, l.k_scale, l.v_scale,
                     l.ctx_scale, l.attn_out_scale, l.ffn_in_scale,
                     l.pre_gelu_scale, l.ffn_mid_scale, l.ffn_out_scale,
                     l.out_scale})
      write_pod<double>(meta, s);
    for (const QuantLinear* q :
         {&l.wq, &l.wk, &l.wv, &l.wo, &l.ffn1, &l.ffn2})
      write_quant_linear_mapped(meta, *q, rel[li++]);
    write_vec(meta, l.ln1_gamma);
    write_vec(meta, l.ln1_beta);
    write_vec(meta, l.ln2_gamma);
    write_vec(meta, l.ln2_beta);
  }
  write_tensor(meta, pooler_w_);
  write_tensor(meta, classifier_w_);
  write_vec(meta, pooler_b_);
  write_vec(meta, classifier_b_);
  const std::string meta_bytes = meta.str();

  const uint64_t weights_base = align_up(
      sizeof(kMagicMapped) + sizeof(uint64_t) + meta_bytes.size(),
      kWeightAlign);
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os.write(kMagicMapped, sizeof(kMagicMapped));
  write_pod<uint64_t>(os, weights_base);
  os.write(meta_bytes.data(),
           static_cast<std::streamsize>(meta_bytes.size()));
  const auto pad_to = [&os](uint64_t from, uint64_t to) {
    static constexpr char zeros[kWeightAlign] = {};
    for (uint64_t at = from; at < to; at += sizeof(zeros))
      os.write(zeros, static_cast<std::streamsize>(
                          std::min<uint64_t>(sizeof(zeros), to - at)));
  };
  pad_to(sizeof(kMagicMapped) + sizeof(uint64_t) + meta_bytes.size(),
         weights_base);
  uint64_t cursor = 0;
  for (size_t i = 0; i < linears.size(); ++i) {
    pad_to(cursor, rel[i]);
    const QuantLinear& q = *linears[i];
    os.write(reinterpret_cast<const char*>(q.tiles()),
             static_cast<std::streamsize>(q.weight_bytes()));
    cursor = rel[i] + q.weight_bytes();
  }
  return static_cast<bool>(os);
}

FqBertModel FqBertModel::load_mapped(const std::string& path) {
  auto mapping = std::make_shared<platform::MappedFile>();
  if (!mapping->open(path)) throw std::runtime_error(mapping->error());
  const uint8_t* base = mapping->data();
  const size_t file_size = mapping->size();
  constexpr size_t kPrefix = sizeof(kMagicMapped) + sizeof(uint64_t);
  if (file_size >= kPrefix &&
      std::memcmp(base, kMagicRetired, sizeof(kMagicRetired)) == 0)
    throw_retired(path);
  if (file_size < kPrefix ||
      std::memcmp(base, kMagicMapped, sizeof(kMagicMapped)) != 0)
    throw std::runtime_error("not an FQBERT03 engine file: " + path);
  uint64_t weights_base = 0;
  std::memcpy(&weights_base, base + sizeof(kMagicMapped),
              sizeof(weights_base));
  if (weights_base < kPrefix || weights_base > file_size)
    throw std::runtime_error("corrupt FQBERT03 engine file: " + path);
  const size_t region_size = file_size - static_cast<size_t>(weights_base);

  ByteReader is{base + kPrefix, static_cast<size_t>(weights_base) - kPrefix,
                0, true};
  FqBertModel m;
  m.config_ = read_config(is);
  m.quant_config_ = read_fq_config(is);
  m.weight_bits_ = m.quant_config_.weight_bits;
  m.emb_scale_ = read_pod<double>(is);
  m.tok_table_ = read_tensor(is);
  m.pos_table_ = read_tensor(is);
  m.seg_table_ = read_tensor(is);
  m.emb_ln_gamma_ = read_vec<float>(is);
  m.emb_ln_beta_ = read_vec<float>(is);

  const auto n_layers = read_pod<uint64_t>(is);
  if (!is.ok || n_layers > (1u << 20))
    throw std::runtime_error("corrupt FQBERT03 engine file: " + path);
  m.layers_.resize(static_cast<size_t>(n_layers));
  for (FqEncoderLayer& l : m.layers_) {
    l.hidden = m.config_.hidden;
    l.ffn_dim = m.config_.ffn_dim;
    l.num_heads = m.config_.num_heads;
    l.head_dim = m.config_.head_dim();
    l.use_int_softmax = m.quant_config_.quantize_softmax;
    l.use_int_layernorm = m.quant_config_.quantize_layernorm;
    for (double* s : {&l.in_scale, &l.q_scale, &l.k_scale, &l.v_scale,
                      &l.ctx_scale, &l.attn_out_scale, &l.ffn_in_scale,
                      &l.pre_gelu_scale, &l.ffn_mid_scale, &l.ffn_out_scale,
                      &l.out_scale})
      *s = read_pod<double>(is);
    for (QuantLinear* qp : {&l.wq, &l.wk, &l.wv, &l.wo, &l.ffn1, &l.ffn2}) {
      QuantLinear q;
      q.in = read_pod<int64_t>(is);
      q.out = read_pod<int64_t>(is);
      q.weight_bits = read_pod<int32_t>(is);
      q.w_scale = read_pod<double>(is);
      q.in_scale = read_pod<double>(is);
      q.out_scale = read_pod<double>(is);
      const auto rel = read_pod<uint64_t>(is);
      q.bias_q = read_vec<int32_t>(is);
      if (!is.ok || q.in < 0 || q.out < 0 || q.in > kMaxDim ||
          q.out > kMaxDim)
        throw std::runtime_error("corrupt FQBERT03 engine file: " + path);
      if (rel % kWeightAlign != 0 || rel > region_size ||
          q.weight_bytes() > region_size - static_cast<size_t>(rel))
        throw std::runtime_error("corrupt FQBERT03 engine file: " + path);
      if (!q.map_tiles(
              reinterpret_cast<const int8_t*>(base + weights_base + rel)))
        throw std::runtime_error("corrupt FQBERT03 engine file: " + path);
      q.rq = quant::Requantizer::from_scale(q.out_scale /
                                            (q.in_scale * q.w_scale));
      *qp = std::move(q);
    }
    l.ln1_gamma = read_vec<float>(is);
    l.ln1_beta = read_vec<float>(is);
    l.ln2_gamma = read_vec<float>(is);
    l.ln2_beta = read_vec<float>(is);
    rebuild_derived_kernels(l);
  }

  m.pooler_w_ = read_tensor(is);
  m.classifier_w_ = read_tensor(is);
  m.pooler_b_ = read_vec<float>(is);
  m.classifier_b_ = read_vec<float>(is);
  if (!is.ok)
    throw std::runtime_error("truncated FQBERT03 engine file: " + path);
  // The weight views above stay valid exactly as long as this mapping
  // does; the model owns it (and copies of the model share it).
  m.mapping_ = std::move(mapping);
  return m;
}

FqBertModel FqBertModel::load_any(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  char magic[8] = {};
  is.read(magic, sizeof(magic));
  const bool mapped =
      is && std::memcmp(magic, kMagicMapped, sizeof(kMagicMapped)) == 0;
  if (is && std::memcmp(magic, kMagicRetired, sizeof(kMagicRetired)) == 0)
    throw_retired(path);
  is.close();
  return mapped ? load_mapped(path) : load(path);
}

}  // namespace fqbert::core
