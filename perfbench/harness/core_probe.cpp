#include "core_probe.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>

#include "accel/accelerator.h"
#include "accel/full_sim.h"
#include "bench_math.h"
#include "core/int_kernels.h"
#include "serve/loadgen.h"
#include "tensor/rng.h"

namespace perfbench {

using fqbert::core::FqBertModel;
using fqbert::core::FqEncoderLayer;
using fqbert::nn::Example;
using Clock = std::chrono::steady_clock;

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool same(const fqbert::Tensor& a, const fqbert::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool same(const fqbert::Tensor& got, const std::vector<float>& want) {
  return static_cast<size_t>(got.numel()) == want.size() &&
         std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0;
}

// Time `fn` once, in microseconds.
template <typename Fn>
double time_us(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return us_between(t0, Clock::now());
}

}  // namespace

Decomposition decompose_forward(const FqBertModel& engine,
                                const std::vector<Example>& examples,
                                double seconds) {
  Decomposition d;
  const auto& layers = engine.encoder_layers();
  const int64_t hidden = engine.config().hidden;
  std::vector<double> embed, layer, head, forward, parts;
  std::vector<int8_t> a, b;
  const auto t_start = Clock::now();
  for (size_t i = 0; elapsed_s(t_start) < seconds; ++i) {
    const Example& ex = examples[i % examples.size()];
    const auto s_len = static_cast<int64_t>(ex.tokens.size());
    fqbert::Tensor whole, pieces;
    const auto run_whole = [&] {
      forward.push_back(time_us([&] { whole = engine.forward(ex); }));
    };
    const auto run_pieces = [&] {
      a.resize(static_cast<size_t>(s_len * hidden));
      double sum = time_us([&] { engine.embed_into(ex, a.data()); });
      embed.push_back(sum);
      for (const FqEncoderLayer& l : layers) {
        const double t = time_us([&] { l.forward(a, b, s_len); });
        layer.push_back(t);
        sum += t;
        std::swap(a, b);
      }
      const double t = time_us([&] { pieces = engine.head_row(a.data()); });
      head.push_back(t);
      parts.push_back(sum + t);
    };
    // Alternate which runs first so neither always sees warmer caches.
    if (i % 2 == 0) {
      run_whole();
      run_pieces();
    } else {
      run_pieces();
      run_whole();
    }
    if (!same(whole, pieces)) ++d.mismatches;
  }
  d.examples = static_cast<int64_t>(forward.size());
  d.embed_us = mean(embed);
  d.layer_us = mean(layer);
  d.head_us = mean(head);
  d.forward_us = mean(forward);
  d.forward_p50_us = median(forward);
  d.parts_p50_us = median(parts);
  return d;
}

int64_t replay_layer(const FqBertModel& engine, int64_t s_len, double seconds,
                     Report& report) {
  const FqEncoderLayer& L = engine.encoder_layers().front();
  const int64_t H = L.hidden, F = L.ffn_dim, NH = L.num_heads,
                HD = L.head_dim;
  const auto S = static_cast<size_t>(s_len);
  fqbert::Rng rng(static_cast<uint64_t>(s_len));
  const Example ex = fqbert::serve::synth_example(rng, s_len, engine.config());

  // One pass through the layer, keeping every intermediate as the input
  // of its op's replay.
  std::vector<int8_t> x(S * static_cast<size_t>(H));
  engine.embed_into(ex, x.data());
  std::vector<int8_t> q, k, v, ctx, attn_out, ffn_x, pre, mid, fo, y, y_ref;
  L.wq.forward_i8(x, q, s_len);
  L.wk.forward_i8(x, k, s_len);
  L.wv.forward_i8(x, v, s_len);
  std::vector<std::vector<int8_t>> vh(static_cast<size_t>(NH));
  std::vector<std::vector<int32_t>> scores(static_cast<size_t>(NH)),
      probs(static_cast<size_t>(NH)), head_acc(static_cast<size_t>(NH));
  for (int64_t h = 0; h < NH; ++h) {
    std::vector<int8_t> qh(S * static_cast<size_t>(HD)), kh(qh.size());
    vh[static_cast<size_t>(h)].resize(qh.size());
    for (int64_t r = 0; r < s_len; ++r)
      for (int64_t c = 0; c < HD; ++c) {
        const auto src = static_cast<size_t>(r * H + h * HD + c);
        const auto dst = static_cast<size_t>(r * HD + c);
        qh[dst] = q[src];
        kh[dst] = k[src];
        vh[static_cast<size_t>(h)][dst] = v[src];
      }
    fqbert::core::int_matmul_bt(qh, kh, scores[static_cast<size_t>(h)], s_len,
                                HD, s_len);
  }
  std::vector<int32_t> ctx_acc(S * static_cast<size_t>(H));
  const auto softmax_all = [&] {
    for (int64_t h = 0; h < NH; ++h)
      L.apply_softmax(scores[static_cast<size_t>(h)],
                      probs[static_cast<size_t>(h)], s_len);
  };
  const auto pv_all = [&] {
    for (int64_t h = 0; h < NH; ++h)
      fqbert::core::int_matmul_pv(probs[static_cast<size_t>(h)],
                                  vh[static_cast<size_t>(h)],
                                  head_acc[static_cast<size_t>(h)], s_len,
                                  s_len, HD);
  };
  softmax_all();
  pv_all();
  for (int64_t h = 0; h < NH; ++h)
    for (int64_t r = 0; r < s_len; ++r)
      for (int64_t c = 0; c < HD; ++c)
        ctx_acc[static_cast<size_t>(r * H + h * HD + c)] =
            head_acc[static_cast<size_t>(h)][static_cast<size_t>(r * HD + c)];
  const std::vector<int32_t> no_bias;
  fqbert::core::requantize_i8(ctx_acc, no_bias, L.ctx_rq, ctx, s_len, H);
  L.wo.forward_i8(ctx, attn_out, s_len);
  std::vector<int32_t> res1(S * static_cast<size_t>(H)), res2(res1.size());
  for (size_t i = 0; i < res1.size(); ++i)
    res1[i] = static_cast<int32_t>(attn_out[i]) + L.res1_rq.apply(x[i]);
  L.apply_layernorm(res1, ffn_x, s_len, /*first=*/true);
  L.ffn1.forward_i8(ffn_x, pre, s_len);
  mid.resize(pre.size());
  const auto gelu_all = [&] {
    for (size_t i = 0; i < pre.size(); ++i) mid[i] = L.gelu->apply(pre[i]);
  };
  gelu_all();
  L.ffn2.forward_i8(mid, fo, s_len);
  for (size_t i = 0; i < res2.size(); ++i)
    res2[i] = static_cast<int32_t>(fo[i]) + L.res2_rq.apply(ffn_x[i]);
  L.apply_layernorm(res2, y, s_len, /*first=*/false);
  L.forward(x, y_ref, s_len);
  const int64_t mismatch = y == y_ref ? 0 : 1;

  struct Op {
    const char* name;
    std::function<void()> run;
    OpCost cost;  // macs == 0 for ops without a matmul
    std::vector<double> us;
  };
  const auto wbytes = [](const fqbert::core::QuantLinear& l) {
    return static_cast<int64_t>(l.weight_bytes()) / (l.in * l.out);
  };
  OpCost qkvo = linear_cost(s_len, H, H, wbytes(L.wq));
  qkvo.macs *= 4;
  qkvo.bytes *= 4;
  std::vector<int8_t> out_q, out_k, out_v, out_o, out_ctx, out_ln, out_pre,
      out_fo, out_y;
  std::vector<Op> ops = {
      {"core.proj_qkvo",
       [&] {
         L.wq.forward_i8(x, out_q, s_len);
         L.wk.forward_i8(x, out_k, s_len);
         L.wv.forward_i8(x, out_v, s_len);
         L.wo.forward_i8(ctx, out_o, s_len);
       },
       qkvo, {}},
      {"core.pv", pv_all, pv_cost(s_len, NH, HD), {}},
      {"core.requant",
       [&] {
         fqbert::core::requantize_i8(ctx_acc, no_bias, L.ctx_rq, out_ctx,
                                     s_len, H);
       },
       {}, {}},
      {"quant.softmax", softmax_all, {}, {}},
      {"quant.layernorm",
       [&] {
         L.apply_layernorm(res1, out_ln, s_len, true);
         L.apply_layernorm(res2, out_y, s_len, false);
       },
       {}, {}},
      {"core.ffn1", [&] { L.ffn1.forward_i8(ffn_x, out_pre, s_len); },
       linear_cost(s_len, H, F, wbytes(L.ffn1)), {}},
      {"quant.gelu", gelu_all, {}, {}},
      {"core.ffn2", [&] { L.ffn2.forward_i8(mid, out_fo, s_len); },
       linear_cost(s_len, F, H, wbytes(L.ffn2)), {}},
  };
  std::vector<double> layer_us;
  std::vector<int8_t> out_layer;
  const auto t_start = Clock::now();
  while (elapsed_s(t_start) < seconds || layer_us.size() < 50) {
    for (Op& op : ops) op.us.push_back(time_us(op.run));
    layer_us.push_back(time_us([&] { L.forward(x, out_layer, s_len); }));
  }

  const std::string suffix = ".s" + std::to_string(s_len);
  double attributed = 0.0;
  for (Op& op : ops) {
    const double us = median(op.us);
    attributed += us;
    report.set(std::string(op.name) + "_us" + suffix, us, "us");
    if (op.cost.macs > 0) {
      report.set(std::string(op.name) + ".gmac_s" + suffix,
                 static_cast<double>(op.cost.macs) / (us * 1e3), "GMAC/s");
      report.set(std::string(op.name) + ".bytes_per_mac" + suffix,
                 op.cost.bytes_per_mac(), "B/MAC");
    }
  }
  const double whole = median(layer_us);
  report.set("core.layer_us" + suffix, whole, "us");
  report.set("core.layer_unattributed_pct" + suffix,
             100.0 * (whole - attributed) / whole, "%");
  return mismatch;
}

constexpr size_t kGroup = 8;

BestOfPasses::BestOfPasses(const FqBertModel& engine,
                           const std::vector<Example>& examples,
                           const std::vector<std::vector<float>>& expected)
    : engine_(engine), examples_(examples), expected_(expected),
      forward_us_(expected.size(), std::numeric_limits<double>::infinity()),
      batch_us_(expected.size() / kGroup,
                std::numeric_limits<double>::infinity()) {}

void BestOfPasses::pass(bool with_forward) {
  std::vector<const Example*> group;
  for (size_t g = 0; g < batch_us_.size(); ++g) {
    const size_t first = g * kGroup;
    if (with_forward) {
      for (size_t i = first; i < first + kGroup; ++i) {
        const auto t0 = Clock::now();
        const fqbert::Tensor logits = engine_.forward(examples_[i]);
        const double us = us_between(t0, Clock::now());
        forward_us_[i] = std::min(forward_us_[i], us);
        calls_ms_.push_back(us / 1e3);
        if (!same(logits, expected_[i])) ++mismatches_;
        ++examples_run_;
      }
    }
    group.clear();
    for (size_t i = first; i < first + kGroup; ++i) group.push_back(&examples_[i]);
    const auto t0 = Clock::now();
    const std::vector<fqbert::Tensor> logits = engine_.forward_batch(group);
    batch_us_[g] = std::min(batch_us_[g], us_between(t0, Clock::now()));
    for (size_t j = 0; j < kGroup; ++j)
      if (!same(logits[j], expected_[first + j])) ++mismatches_;
    examples_run_ += static_cast<int64_t>(kGroup);
  }
  ++passes_;
}

double BestOfPasses::forward_rps() const {
  double us = 0.0;
  for (size_t i = 0; i < batch_us_.size() * kGroup; ++i) us += forward_us_[i];
  return us > 0.0 ? 1e6 * static_cast<double>(batch_us_.size() * kGroup) / us
                  : 0.0;
}

double BestOfPasses::batch_rps() const {
  double us = 0.0;
  for (const double b : batch_us_) us += b;
  return us > 0.0 ? 1e6 * static_cast<double>(batch_us_.size() * kGroup) / us
                  : 0.0;
}

AccelResult accel_models(const FqBertModel& engine,
                         const std::vector<Example>& examples) {
  namespace accel = fqbert::accel;
  AccelResult r;
  const accel::AcceleratorConfig cfg = accel::AcceleratorConfig::zcu111_16_16();
  const accel::AcceleratorReport rep =
      accel::evaluate(cfg, accel::FpgaDevice::zcu111(),
                      fqbert::nn::BertConfig::bert_base(2), 128);
  r.sim_ms = rep.latency.total_ms;
  r.fps_per_w = rep.fps_per_w;
  for (const accel::StageStats& st : rep.latency.stages) {
    std::string name;
    for (const char c : st.name) {
      const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9');
      if (alnum)
        name += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
      else if (!name.empty() && name.back() != '_')
        name += '_';
    }
    while (!name.empty() && name.back() == '_') name.pop_back();
    r.stage_cycles.emplace_back(name, st.total_cycles);
    r.stall_cycles += st.stall_cycles * rep.latency.num_layers;
  }
  std::vector<double> host_ms;
  for (const Example& ex : examples) {
    const auto t0 = Clock::now();
    const accel::FullSimReport sim = accel::run_full_model(engine, ex, cfg);
    host_ms.push_back(us_between(t0, Clock::now()) / 1e3);
    if (!same(sim.logits, engine.forward(ex))) ++r.mismatches;
  }
  r.fullsim_host_ms = median(host_ms);
  return r;
}

}  // namespace perfbench
