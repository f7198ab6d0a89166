// Bit-identity regression tests for the deterministic sharded training path
// (DESIGN.md §5). Training with config.threads = 1 and config.threads = 4
// must produce byte-for-byte identical final parameters, loss curves, dev
// curves, posteriors q_f, and confusion estimates: the sharded path always
// partitions work over Parallelizer::kSlots fixed slots and reduces the
// per-slot accumulators in slot order, so the thread count only changes who
// executes a slot, never what is summed in which order.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/logic_lncl.h"
#include "core/ner_rules.h"
#include "core/sentiment_rules.h"
#include "crowd/simulator.h"
#include "data/ner_gen.h"
#include "data/sentiment_gen.h"
#include "models/crf_tagger.h"
#include "models/ner_tagger.h"
#include "models/text_cnn.h"
#include "util/gemm_kernel.h"
#include "util/rng.h"

namespace lncl {
namespace {

using util::Rng;

// Byte-level snapshot of every parameter value matrix.
std::vector<std::vector<float>> SnapshotParams(models::Model* model) {
  std::vector<std::vector<float>> out;
  for (nn::Parameter* p : model->Params()) {
    out.emplace_back(p->value.data(), p->value.data() + p->value.size());
  }
  return out;
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool BitEqual(const util::Matrix& a, const util::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct FitSnapshot {
  core::LogicLnclResult result;
  std::vector<std::vector<float>> params;
  std::vector<util::Matrix> qf;
  std::vector<util::Matrix> confusions;
  // PredictTeacherBatch on the test split, fp32 and with quantized_predict.
  std::vector<util::Matrix> teacher;
  std::vector<util::Matrix> teacher_int8;
};

FitSnapshot Snapshot(core::LogicLncl* learner, core::LogicLnclResult result,
                     const data::Dataset& test) {
  FitSnapshot snap;
  snap.result = std::move(result);
  snap.params = SnapshotParams(learner->model());
  snap.qf = learner->qf();
  for (const auto& c : learner->confusions()) {
    snap.confusions.push_back(c.matrix());
  }
  snap.teacher = learner->PredictTeacherBatch(test);
  learner->SetQuantizedPredict(true);
  snap.teacher_int8 = learner->PredictTeacherBatch(test);
  learner->SetQuantizedPredict(false);
  return snap;
}

// 64-bit FNV-1a, continued from `h`.
uint64_t Fnv1a(const void* data, size_t n,
               uint64_t h = 14695981039346656037ull) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashMatrices(const std::vector<util::Matrix>& ms,
                      uint64_t h = 14695981039346656037ull) {
  for (const util::Matrix& m : ms) {
    const int shape[2] = {m.rows(), m.cols()};
    h = Fnv1a(shape, sizeof(shape), h);
    h = Fnv1a(m.data(), m.size() * sizeof(float), h);
  }
  return h;
}

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Hash of a fit's trajectory and outcome: the loss curve, the final
// parameters, and q_f.
std::string FitHash(const FitSnapshot& snap) {
  const std::vector<double>& loss = snap.result.loss_curve;
  uint64_t h = Fnv1a(loss.data(), loss.size() * sizeof(double));
  for (const std::vector<float>& p : snap.params) {
    h = Fnv1a(p.data(), p.size() * sizeof(float), h);
  }
  return Hex(HashMatrices(snap.qf, h));
}

// Golden hashes pin a fit's bits across commits, where the tests comparing
// thread counts only look inside one build: the GRU-tagger and TextCnn fits
// at 1, 3 and 4 threads (at 3 the kSlots = 8 slots do not divide evenly over
// the workers), and at 1 and 4 threads the paths no benchmark workload runs
// (the per-instance E-step and teacher, the LSTM tagger, the CRF tagger). A
// change to any of them is a change of training trajectory or of serving
// numerics; it must be deliberate and re-recorded here.
struct GoldenHashes {
  const char* fit;           // FitHash
  const char* teacher;       // PredictTeacherBatch, fp32
  const char* teacher_int8;  // PredictTeacherBatch, quantized_predict
};

void ExpectGolden(const FitSnapshot& snap, const GoldenHashes& golden,
                  int threads) {
  EXPECT_EQ(FitHash(snap), golden.fit) << "threads=" << threads;
  EXPECT_EQ(Hex(HashMatrices(snap.teacher)), golden.teacher)
      << "threads=" << threads;
  EXPECT_EQ(Hex(HashMatrices(snap.teacher_int8)), golden.teacher_int8)
      << "threads=" << threads;
}

void ExpectBitIdentical(const FitSnapshot& a, const FitSnapshot& b) {
  // Exact double equality is intentional: the guarantee is bit-identity,
  // not closeness.
  ASSERT_EQ(a.result.loss_curve.size(), b.result.loss_curve.size());
  for (size_t i = 0; i < a.result.loss_curve.size(); ++i) {
    EXPECT_EQ(a.result.loss_curve[i], b.result.loss_curve[i])
        << "loss diverges at epoch " << i;
  }
  ASSERT_EQ(a.result.dev_curve.size(), b.result.dev_curve.size());
  for (size_t i = 0; i < a.result.dev_curve.size(); ++i) {
    EXPECT_EQ(a.result.dev_curve[i], b.result.dev_curve[i])
        << "dev score diverges at epoch " << i;
  }
  EXPECT_EQ(a.result.best_epoch, b.result.best_epoch);
  EXPECT_EQ(a.result.best_dev_score, b.result.best_dev_score);

  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.params[i], b.params[i]))
        << "parameter " << i << " differs";
  }
  ASSERT_EQ(a.qf.size(), b.qf.size());
  for (size_t i = 0; i < a.qf.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.qf[i], b.qf[i])) << "q_f[" << i << "] differs";
  }
  ASSERT_EQ(a.confusions.size(), b.confusions.size());
  for (size_t i = 0; i < a.confusions.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.confusions[i], b.confusions[i]))
        << "confusion " << i << " differs";
  }
  ASSERT_EQ(a.teacher.size(), b.teacher.size());
  ASSERT_EQ(a.teacher_int8.size(), b.teacher_int8.size());
  for (size_t i = 0; i < a.teacher.size(); ++i) {
    EXPECT_TRUE(BitEqual(a.teacher[i], b.teacher[i]))
        << "teacher[" << i << "] differs";
    EXPECT_TRUE(BitEqual(a.teacher_int8[i], b.teacher_int8[i]))
        << "int8 teacher[" << i << "] differs";
  }
}

// ------------------------------------------------------- sentiment TextCnn

class SentimentDeterminismTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 200, 60, 60, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 15;
    auto sim = crowd::CrowdSimulator::MakeClassification(ccfg, 2, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.Annotate(corpus_.train, &rng));
    models::TextCnnConfig mcfg;
    mcfg.feature_maps = 8;
    mcfg.dropout = 0.5;
    factory_ = models::TextCnn::Factory(mcfg, corpus_.embeddings);
  }

  FitSnapshot Run(int threads) const {
    core::LogicLnclConfig config;
    config.epochs = 4;
    config.batch_size = 32;
    config.patience = 4;
    config.k_schedule = core::SentimentKSchedule();
    config.optimizer.kind = "adadelta";
    config.optimizer.lr = 1.0;
    config.threads = threads;
    Rng rng(1);
    core::LogicLncl learner(config, factory_, nullptr);
    core::LogicLnclResult result =
        learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
    return Snapshot(&learner, std::move(result), corpus_.test);
  }

  // 3-epoch TextCnn fit with the A-but-B rule (dropout 0.5, Adadelta). The
  // rule consults the model being trained, so the learner takes a pre-built
  // model; `replica_factory` only adds training workers. With batch_predict
  // off the E-step predicts and projects one instance per call, and
  // `teacher` comes from the per-instance PredictTeacher (the Predict and
  // Project wrappers).
  FitSnapshot RunButRule(int threads, bool replica_factory,
                         bool batch_predict = true) const {
    core::LogicLnclConfig config;
    config.epochs = 3;
    config.batch_size = 32;
    config.patience = 3;
    config.k_schedule = core::SentimentKSchedule();
    config.optimizer.kind = "adadelta";
    config.optimizer.lr = 1.0;
    config.threads = threads;
    config.batch_predict = batch_predict;
    Rng rng(1);
    std::unique_ptr<models::Model> model = factory_(&rng);
    core::SentimentButRule rule(model.get(), corpus_.but_token);
    core::LogicLncl learner(config, std::move(model), &rule,
                            replica_factory ? factory_ : nullptr);
    core::LogicLnclResult result =
        learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
    FitSnapshot snap = Snapshot(&learner, std::move(result), corpus_.test);
    if (!batch_predict) {
      snap.teacher.clear();
      for (const data::Instance& x : corpus_.test.instances) {
        snap.teacher.push_back(learner.PredictTeacher(x));
      }
    }
    return snap;
  }

  data::SentimentCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
};

TEST_F(SentimentDeterminismTest, OneVsFourThreadsBitIdentical) {
  const FitSnapshot one = Run(1);
  const FitSnapshot four = Run(4);
  ExpectBitIdentical(one, four);
}

TEST_F(SentimentDeterminismTest, RepeatedRunsBitIdentical) {
  // Same thread count twice: the sharded path must also be reproducible
  // run-to-run (no address-dependent or scheduling-dependent state leaks).
  const FitSnapshot a = Run(4);
  const FitSnapshot b = Run(4);
  ExpectBitIdentical(a, b);
}

constexpr GoldenHashes kButRuleGolden = {
    "95e65f271a9503c2", "e178ad656e9b2414", "637059670e10435c"};

TEST_F(SentimentDeterminismTest, ButRuleFitMatchesGoldenHashes) {
  for (const int threads : {1, 3, 4}) {
    ExpectGolden(RunButRule(threads, /*replica_factory=*/true),
                 kButRuleGolden, threads);
  }
}

TEST_F(SentimentDeterminismTest, PerInstanceButRuleFitMatchesGoldenHashes) {
  // The per-instance E-step and teacher reproduce the batched goldens:
  // batch_predict only changes how many instances one call handles.
  for (const int threads : {1, 4}) {
    ExpectGolden(RunButRule(threads, /*replica_factory=*/true,
                            /*batch_predict=*/false),
                 kButRuleGolden, threads);
  }
}

TEST_F(SentimentDeterminismTest, ReplicaFactoryOnlyAddsWorkers) {
  // threads >= 1 always selects the sharded trajectory: without a replica
  // factory the master trains alone, bit-identically.
  for (const int threads : {1, 4}) {
    const FitSnapshot with = RunButRule(threads, /*replica_factory=*/true);
    const FitSnapshot without =
        RunButRule(threads, /*replica_factory=*/false);
    ExpectBitIdentical(with, without);
    EXPECT_EQ(FitHash(with), FitHash(without)) << "threads=" << threads;
  }
}

TEST_F(SentimentDeterminismTest, ScalarKernelOverrideBitIdentical) {
  // Whole-fit analogue of the LNCL_GEMM_KERNEL=scalar override: the scalar
  // GEMM backend must reproduce the SIMD trajectory byte-for-byte
  // (DESIGN.md §9 — one sequential-fma accumulator per output element in
  // both backends).
  if (!util::gemm::SimdCompiled()) {
    GTEST_SKIP() << "no SIMD kernel in this build";
  }
  util::gemm::SetActiveKindForTest(util::gemm::Kind::kSimd);
  const FitSnapshot simd = Run(1);
  util::gemm::SetActiveKindForTest(util::gemm::Kind::kScalar);
  const FitSnapshot scalar = Run(1);
  util::gemm::SetActiveKindForTest(util::gemm::ParseKindEnv());
  ExpectBitIdentical(simd, scalar);
}

// ------------------------------------------------------------- NER tagger

class NerDeterminismTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4048);
    data::NerGenConfig gcfg;
    corpus_ = data::GenerateNerCorpus(gcfg, 120, 40, 40, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 10;
    auto sim = crowd::CrowdSimulator::MakeSequence(ccfg, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.AnnotateSequences(corpus_.train, &rng));
    models::NerTaggerConfig mcfg;
    mcfg.conv_features = 16;
    mcfg.gru_hidden = 8;
    mcfg.dropout = 0.5;
    factory_ = models::NerTagger::Factory(mcfg, corpus_.embeddings);
    projector_ = core::MakeNerRuleProjector();
  }

  static core::LogicLnclConfig Config(int threads) {
    core::LogicLnclConfig config;
    config.epochs = 3;
    config.batch_size = 16;
    config.patience = 3;
    config.weighted_loss = true;
    config.k_schedule = core::NerKSchedule();
    config.optimizer.kind = "adam";
    config.optimizer.lr = 0.002;
    config.threads = threads;
    return config;
  }

  FitSnapshot Run(int threads,
                  const models::ModelFactory& factory) const {
    Rng rng(1);
    core::LogicLncl learner(Config(threads), factory, projector_.get());
    core::LogicLnclResult result =
        learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
    return Snapshot(&learner, std::move(result), corpus_.test);
  }
  FitSnapshot Run(int threads) const { return Run(threads, factory_); }

  data::NerCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
  std::unique_ptr<logic::SequenceRuleProjector> projector_;
};

TEST_F(NerDeterminismTest, OneVsFourThreadsBitIdentical) {
  const FitSnapshot one = Run(1);
  const FitSnapshot four = Run(4);
  ExpectBitIdentical(one, four);
}

TEST_F(NerDeterminismTest, MatchesGoldenHashes) {
  // 3-epoch conv+GRU fit with transition rules (dropout 0.5, Adam).
  const GoldenHashes golden = {"7fb7cc9f98d5e89b", "6c91d29c8e145923",
                                "d60950bf6f2498bc"};
  for (const int threads : {1, 3, 4}) {
    ExpectGolden(Run(threads), golden, threads);
  }
}

TEST_F(NerDeterminismTest, LstmTaggerMatchesGoldenHashes) {
  // The same fit with the LSTM cell of the recurrent-cell ablation.
  models::NerTaggerConfig mcfg;
  mcfg.conv_features = 16;
  mcfg.gru_hidden = 8;
  mcfg.dropout = 0.5;
  mcfg.recurrent = models::NerTaggerConfig::Recurrent::kLstm;
  const models::ModelFactory lstm =
      models::NerTagger::Factory(mcfg, corpus_.embeddings);
  const GoldenHashes golden = {"100a3cb7bb15d50e", "2bfd63ed2066877d",
                                "c011a614a0103448"};
  for (const int threads : {1, 4}) {
    ExpectGolden(Run(threads, lstm), golden, threads);
  }
}

TEST_F(NerDeterminismTest, CrfTaggerMatchesGoldenHashes) {
  // A 2-epoch CRF-tagger fit, then its marginals (PredictBatch) and Viterbi
  // paths (Decode) on the test split.
  models::CrfTaggerConfig mcfg;
  mcfg.conv_features = 16;
  mcfg.gru_hidden = 8;
  mcfg.dropout = 0.5;
  const models::ModelFactory crf =
      models::CrfTagger::Factory(mcfg, corpus_.embeddings);
  for (const int threads : {1, 4}) {
    core::LogicLnclConfig config = Config(threads);
    config.epochs = 2;
    config.patience = 2;
    Rng rng(1);
    core::LogicLncl learner(config, crf, projector_.get());
    FitSnapshot snap;
    snap.result = learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
    snap.params = SnapshotParams(learner.model());
    snap.qf = learner.qf();
    const auto* tagger =
        static_cast<const models::CrfTagger*>(learner.model());
    uint64_t paths = 14695981039346656037ull;
    for (const data::Instance& x : corpus_.test.instances) {
      const std::vector<int> path = tagger->Decode(x);
      const size_t n = path.size();
      paths = Fnv1a(&n, sizeof(n), paths);
      paths = Fnv1a(path.data(), n * sizeof(int), paths);
    }
    EXPECT_EQ(FitHash(snap), "a268aad9dbb8a88a") << "threads=" << threads;
    EXPECT_EQ(Hex(HashMatrices(learner.model()->PredictBatch(corpus_.test))),
              "39bfb19ee7741eae")
        << "threads=" << threads;
    EXPECT_EQ(Hex(paths), "9d13b2ec0aecb232") << "threads=" << threads;
  }
}

}  // namespace
}  // namespace lncl
