// google-benchmark micro-benchmarks for the neural-network substrate:
// forward/backward costs of the layers that dominate Logic-LNCL training,
// plus microkernel-level GEMM cases at the exact shapes those layers issue
// (GFLOP/s reported per case; see src/util/gemm_kernel.h).
#include <benchmark/benchmark.h>

#include <vector>

#include "data/embedding.h"
#include "models/ner_tagger.h"
#include "models/text_cnn.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/quantize.h"
#include "nn/softmax.h"
#include "util/gemm_kernel.h"
#include "util/rng.h"

namespace lncl {
namespace {

util::Matrix RandomMatrix(int rows, int cols, util::Rng* rng) {
  util::Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng->Gaussian());
    }
  }
  return m;
}

std::vector<float> RandomBuffer(size_t n, util::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

// Raw microkernel GEMM at the shapes the model forwards actually issue:
//   14x16x160   Kim-CNN conv interior rows (T=18, window 5, 32-dim emb)
//   14x64x160   NER conv interior rows (window 5)
//   14x32x64    GRU per-gate input product gx = X W^T
//   64x32x32    GRU recurrent gate over a 64-row length bucket
//   1x32x32     GRU recurrent gate, per-instance serving
//   1x2x48      Kim-CNN fc head, per-instance serving
//   {7,9,13,16}x16x160  Kim-CNN conv rows of shorter and longer sentences:
//               one row block, and the balanced two-block splits
//   {9,13}x64x160       NER conv rows of short sentences
// Bias + ReLU ride the fused epilogue, as in the layer code.
void GemmShapeBench(benchmark::State& state, util::gemm::Kind kind) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  if (kind == util::gemm::Kind::kSimd && !util::gemm::SimdCompiled()) {
    state.SkipWithError("no SIMD kernel in this build");
    return;
  }
  util::Rng rng(7);
  const std::vector<float> a = RandomBuffer(static_cast<size_t>(m) * k, &rng);
  const std::vector<float> b = RandomBuffer(static_cast<size_t>(k) * n, &rng);
  const std::vector<float> bias = RandomBuffer(n, &rng);
  std::vector<float> c(static_cast<size_t>(m) * n);
  util::gemm::SetActiveKindForTest(kind);
  for (auto _ : state) {
    util::gemm::GemmEx(m, n, k, 1.0f, a.data(), k, util::Trans::kNo,
                       b.data(), n, util::Trans::kNo, 0.0f, c.data(), n,
                       bias.data(), util::Act::kRelu);
    benchmark::DoNotOptimize(c.data());
  }
  util::gemm::SetActiveKindForTest(util::gemm::ParseKindEnv());
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * m * n * k * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_GemmMicrokernel(benchmark::State& state) {
  GemmShapeBench(state, util::gemm::Kind::kSimd);
}
BENCHMARK(BM_GemmMicrokernel)
    ->Args({14, 16, 160})
    ->Args({14, 64, 160})
    ->Args({7, 16, 160})
    ->Args({9, 16, 160})
    ->Args({13, 16, 160})
    ->Args({16, 16, 160})
    ->Args({9, 64, 160})
    ->Args({13, 64, 160})
    ->Args({14, 32, 64})
    ->Args({64, 32, 32})
    ->Args({1, 32, 32})
    ->Args({1, 2, 48});

void BM_GemmScalarRef(benchmark::State& state) {
  GemmShapeBench(state, util::gemm::Kind::kScalar);
}
BENCHMARK(BM_GemmScalarRef)->Args({14, 16, 160})->Args({14, 64, 160});

// Int8 serving kernel at the conv-interior shapes (per-row-quantized
// weights, fp32 accumulate; see nn/quantize.h).
void BM_GemmInt8Microkernel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  util::Rng rng(8);
  const std::vector<float> a = RandomBuffer(static_cast<size_t>(m) * k, &rng);
  const std::vector<float> bias = RandomBuffer(n, &rng);
  util::Matrix w(n, k);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) w(i, j) = static_cast<float>(rng.Gaussian());
  }
  nn::RowQuantized qw;
  nn::QuantizeRows(w, &qw);
  std::vector<float> c(static_cast<size_t>(m) * n);
  for (auto _ : state) {
    util::gemm::GemmInt8(m, n, k, a.data(), k, qw.q.data(), qw.scale.data(),
                         c.data(), n, bias.data(), util::Act::kRelu);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * m * n * k * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmInt8Microkernel)
    ->Args({14, 16, 160})
    ->Args({14, 64, 160});

void BM_LinearForward(benchmark::State& state) {
  util::Rng rng(1);
  const int dim = static_cast<int>(state.range(0));
  nn::Linear layer("fc", dim, dim, &rng);
  util::Vector x(dim, 0.5f), y;
  for (auto _ : state) {
    layer.Forward(x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * dim * dim);
}
BENCHMARK(BM_LinearForward)->Arg(32)->Arg(128)->Arg(512);

void BM_Conv1dForwardBackward(benchmark::State& state) {
  util::Rng rng(2);
  const int t_len = static_cast<int>(state.range(0));
  nn::Conv1d conv("conv", 5, 32, 64, nn::Conv1d::Padding::kSame, &rng);
  const util::Matrix x = RandomMatrix(t_len, 32, &rng);
  util::Matrix y;
  for (auto _ : state) {
    conv.Forward(x, &y);
    conv.Backward(x, y, nullptr);
    nn::ZeroGrads(conv.Params());
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_Conv1dForwardBackward)->Arg(10)->Arg(20)->Arg(40);

void BM_GruForwardBackward(benchmark::State& state) {
  util::Rng rng(3);
  const int t_len = static_cast<int>(state.range(0));
  nn::Gru gru("gru", 64, 32, &rng);
  const util::Matrix x = RandomMatrix(t_len, 64, &rng);
  nn::Gru::Cache cache;
  util::Matrix h, grad_h(t_len, 32, 0.01f);
  for (auto _ : state) {
    gru.Forward(x, &cache, &h);
    gru.Backward(x, cache, grad_h, nullptr);
    nn::ZeroGrads(gru.Params());
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_GruForwardBackward)->Arg(10)->Arg(20)->Arg(40);

void BM_SoftmaxRows(benchmark::State& state) {
  util::Rng rng(4);
  const util::Matrix logits =
      RandomMatrix(static_cast<int>(state.range(0)), 9, &rng);
  util::Matrix probs;
  for (auto _ : state) {
    nn::SoftmaxRows(logits, &probs);
    benchmark::DoNotOptimize(probs.data());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(16)->Arg(128);

void BM_TextCnnTrainStep(benchmark::State& state) {
  util::Rng rng(5);
  auto emb = std::make_shared<data::EmbeddingTable>(500, 32);
  for (int v = 1; v < 500; ++v) {
    for (int d = 0; d < 32; ++d) {
      emb->table()(v, d) = static_cast<float>(rng.Gaussian());
    }
  }
  models::TextCnnConfig config;
  models::TextCnn cnn(config, emb, &rng);
  data::Instance x;
  for (int i = 0; i < 18; ++i) x.tokens.push_back(1 + rng.UniformInt(499));
  util::Matrix q(1, 2);
  q(0, 0) = 0.7f;
  q(0, 1) = 0.3f;
  for (auto _ : state) {
    cnn.ForwardTrain(x, &rng);
    cnn.BackwardSoftTarget(q, 1.0f);
    nn::ZeroGrads(cnn.Params());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TextCnnTrainStep);

void BM_NerTaggerTrainStep(benchmark::State& state) {
  util::Rng rng(6);
  auto emb = std::make_shared<data::EmbeddingTable>(500, 32);
  for (int v = 1; v < 500; ++v) {
    for (int d = 0; d < 32; ++d) {
      emb->table()(v, d) = static_cast<float>(rng.Gaussian());
    }
  }
  models::NerTaggerConfig config;
  models::NerTagger tagger(config, emb, &rng);
  data::Instance x;
  const int t_len = 14;
  for (int i = 0; i < t_len; ++i) x.tokens.push_back(1 + rng.UniformInt(499));
  util::Matrix q(t_len, 9);
  for (int t = 0; t < t_len; ++t) q(t, t % 9) = 1.0f;
  for (auto _ : state) {
    tagger.ForwardTrain(x, &rng);
    tagger.BackwardSoftTarget(q, 1.0f);
    nn::ZeroGrads(tagger.Params());
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_NerTaggerTrainStep);

}  // namespace
}  // namespace lncl

#ifndef LNCL_MICRO_COMBINED
BENCHMARK_MAIN();
#endif
