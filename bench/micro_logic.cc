// google-benchmark micro-benchmarks for the logic substrate and the
// EM-adjacent kernels: Eq. 15 projection, forward-backward sequence
// projection, q_a computation, the chain smoother, the confusion update and
// the truth-inference aggregators.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/ner_rules.h"
#include "core/trainer.h"
#include "crowd/confusion.h"
#include "inference/bsc_seq.h"
#include "inference/dawid_skene.h"
#include "inference/hmm_crowd.h"
#include "inference/ibcc.h"
#include "logic/posterior_reg.h"
#include "logic/sequence_rules.h"
#include "util/chain.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lncl {
namespace {

util::Matrix RandomDistributions(int rows, int k, util::Rng* rng) {
  util::Matrix q(rows, k);
  for (int r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < k; ++c) {
      q(r, c) = static_cast<float>(rng->Uniform(0.05, 1.0));
      sum += q(r, c);
    }
    for (int c = 0; c < k; ++c) q(r, c) /= sum;
  }
  return q;
}

void BM_ProjectIndependent(benchmark::State& state) {
  util::Rng rng(1);
  const int rows = static_cast<int>(state.range(0));
  const util::Matrix q = RandomDistributions(rows, 2, &rng);
  util::Matrix pen(rows, 2);
  for (int r = 0; r < rows; ++r) pen(r, 0) = 0.5f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::ProjectIndependent(q, pen, 5.0));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ProjectIndependent)->Arg(1)->Arg(64)->Arg(1024);

void BM_SequenceProjection(benchmark::State& state) {
  util::Rng rng(2);
  const int t_len = static_cast<int>(state.range(0));
  const logic::SequenceRuleProjector projector(
      core::BuildNerTransitionPenalty());
  const util::Matrix q = RandomDistributions(t_len, 9, &rng);
  data::Instance x;
  for (auto _ : state) {
    benchmark::DoNotOptimize(projector.Project(x, q, 5.0));
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_SequenceProjection)->Arg(8)->Arg(16)->Arg(32);

void BM_ComputeQa(benchmark::State& state) {
  util::Rng rng(3);
  const int t_len = 14;
  const int annotators = static_cast<int>(state.range(0));
  const util::Matrix probs = RandomDistributions(t_len, 9, &rng);
  crowd::ConfusionSet confusions(annotators, crowd::ConfusionMatrix(9, 0.8));
  crowd::InstanceAnnotations ann;
  for (int j = 0; j < annotators; ++j) {
    crowd::AnnotatorLabels e;
    e.annotator = j;
    for (int t = 0; t < t_len; ++t) e.labels.push_back(rng.UniformInt(9));
    ann.entries.push_back(std::move(e));
  }
  const std::vector<util::Matrix> log_pi = crowd::LogConfusions(confusions);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeQa(probs, ann, log_pi));
  }
  state.SetItemsProcessed(state.iterations() * t_len * annotators);
}
BENCHMARK(BM_ComputeQa)->Arg(1)->Arg(5)->Arg(20);

// The exact chain smoother behind HMM-Crowd, BSC-seq and CrfTagger: K = 9
// (the NER BIO tag set), gamma plus the summed pairwise posteriors, one
// chain per call (CrfTagger::ForwardTrain's batch of one).
void BM_ChainForwardBackward(benchmark::State& state) {
  util::Rng rng(5);
  const int t_len = static_cast<int>(state.range(0));
  const int k = 9;
  const util::Matrix prior_row = RandomDistributions(1, k, &rng);
  const util::Vector prior(prior_row.data(), prior_row.data() + k);
  const util::Matrix transition = RandomDistributions(k, k, &rng);
  const util::Matrix emission = RandomDistributions(t_len, k, &rng);
  util::Matrix gamma;
  util::Matrix xi_sum(k, k);
  for (auto _ : state) {
    util::ChainForwardBackward(prior, transition, {&emission, 1}, {&gamma, 1},
                               &xi_sum);
    benchmark::DoNotOptimize(std::as_const(gamma).data());
    benchmark::DoNotOptimize(std::as_const(xi_sum).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * t_len);
}
BENCHMARK(BM_ChainForwardBackward)->Arg(8)->Arg(16)->Arg(32);

// The same smoother over a batch, as the aggregators and the rule projector
// call it: 64 chains of length 8-18, K = 9, xi on. Items are tokens.
void BM_ChainForwardBackwardBatch(benchmark::State& state) {
  util::Rng rng(6);
  const int k = 9;
  const util::Matrix prior_row = RandomDistributions(1, k, &rng);
  const util::Vector prior(prior_row.data(), prior_row.data() + k);
  const util::Matrix transition = RandomDistributions(k, k, &rng);
  std::vector<util::Matrix> emissions;
  int64_t tokens = 0;
  for (int i = 0; i < 64; ++i) {
    emissions.push_back(RandomDistributions(rng.UniformInt(8, 18), k, &rng));
    tokens += emissions.back().rows();
  }
  std::vector<util::Matrix> gammas(emissions.size());
  util::Matrix xi_sum(k, k);
  for (auto _ : state) {
    util::ChainForwardBackward(prior, transition, emissions, gammas, &xi_sum);
    benchmark::DoNotOptimize(gammas.data());
    benchmark::DoNotOptimize(std::as_const(xi_sum).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_ChainForwardBackwardBatch);

void BM_UpdateConfusions(benchmark::State& state) {
  util::Rng rng(4);
  const int instances = static_cast<int>(state.range(0));
  const int annotators = 50;
  crowd::AnnotationSet ann(instances, annotators, 2);
  std::vector<util::Matrix> qf;
  for (int i = 0; i < instances; ++i) {
    for (int j = 0; j < 5; ++j) {
      crowd::AnnotatorLabels e;
      e.annotator = rng.UniformInt(annotators);
      e.labels.push_back(rng.UniformInt(2));
      ann.instance(i).entries.push_back(std::move(e));
    }
    qf.push_back(RandomDistributions(1, 2, &rng));
  }
  crowd::ConfusionSet confusions;
  util::Parallelizer exec;
  for (auto _ : state) {
    core::UpdateConfusions(qf, ann, 0.01, &confusions, &exec);
    benchmark::DoNotOptimize(confusions.data());
  }
  state.SetItemsProcessed(state.iterations() * instances);
}
BENCHMARK(BM_UpdateConfusions)->Arg(100)->Arg(1000);

// The EM aggregators of the ner_aggregate benchmark workload with its
// fixed iteration counts (a negative tolerance never stops early), through
// the EM cores their Infer runs (DawidSkene::Run, RunSequenceEm).
// range(0) 0-3: DS, IBCC, BSC-seq, HMM-Crowd on a reduced NER crowd from
// the table3 setup (1,000 sentences, 47 annotators; K = 9, the kernels'
// compile-time K); 4-5: DS and IBCC on a K = 2 crowd of the sentiment
// shape (4,999 instances, 203 annotators, about 5.5 labels each), which
// runs the run-time-K kernels. range(1): the workers of their
// Parallelizer, 1 and one per hardware thread. Real time, since the
// default CPU time counts the calling thread alone. Items are tokens or
// sentences.
void BM_TruthInference(benchmark::State& state) {
  static const bench::NerSetup ner = [] {
    bench::Scale scale;
    scale.train = 1000;
    scale.annotators = 47;
    return bench::MakeNerSetup(scale, 1);
  }();
  static const bench::SentimentSetup sentiment = [] {
    bench::Scale scale;
    scale.train = 4999;
    scale.annotators = 203;
    return bench::MakeSentimentSetup(scale, 1);
  }();
  const bool k2 = state.range(0) >= 4;
  const data::Dataset& train = k2 ? sentiment.corpus.train : ner.corpus.train;
  const crowd::AnnotationSet& crowd =
      k2 ? sentiment.annotations : ner.annotations;
  const std::vector<int> items = inference::ItemsPerInstance(train);
  util::Parallelizer exec(static_cast<int>(state.range(1)));
  const auto flat_em = [&](const inference::DawidSkene& core,
                           double diag_pseudo) {
    const inference::ItemView view = inference::FlattenItems(crowd, items);
    return inference::UnflattenPosteriors(
        view, core.Run(view, diag_pseudo, nullptr, &exec));
  };
  const inference::DawidSkene ds({.max_iters = 5, .tol = -1.0,
                                  .smoothing = 1e-2});
  const inference::Ibcc::Options ibcc = {
      .diag_pseudo = 2.0, .smoothing = 0.5, .max_iters = 4};
  const inference::DawidSkene ibcc_core(
      {.max_iters = ibcc.max_iters, .smoothing = ibcc.smoothing});
  const inference::SequenceEmModel bsc =
      inference::BscSeq({.max_iters = 10,
                         .confusion_pseudo = 0.3,
                         .diag_pseudo = 1.0,
                         .transition_pseudo = 0.2,
                         .tol = -1.0})
          .model();
  const inference::SequenceEmModel hmm =
      inference::HmmCrowd({.max_iters = 5, .smoothing = 0.1, .tol = -1.0})
          .model();
  const char* const names[] = {"DS",        "IBCC",   "BSC-seq",
                               "HMM-Crowd", "DS K=2", "IBCC K=2"};
  state.SetLabel(names[state.range(0)]);
  for (auto _ : state) {
    switch (state.range(0)) {
      case 0:
      case 4:
        benchmark::DoNotOptimize(flat_em(ds, 0.0));
        break;
      case 1:
      case 5:
        benchmark::DoNotOptimize(flat_em(ibcc_core, ibcc.diag_pseudo));
        break;
      case 2:
        benchmark::DoNotOptimize(
            inference::RunSequenceEm(crowd, items, bsc, &exec));
        break;
      default:
        benchmark::DoNotOptimize(
            inference::RunSequenceEm(crowd, items, hmm, &exec));
    }
  }
  state.SetItemsProcessed(state.iterations() * train.TotalItems());
}
BENCHMARK(BM_TruthInference)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {1, util::HardwareThreads()}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lncl

#ifndef LNCL_MICRO_COMBINED
BENCHMARK_MAIN();
#endif
