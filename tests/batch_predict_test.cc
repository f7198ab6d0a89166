// Byte-for-byte equivalence of the batched prediction pipeline
// (Model::PredictBatch and everything layered on it) against an independent
// one-instance reference: the training forward of the same model built with
// dropout 0, at which rate DropoutForward draws nothing and scales nothing.
// The batched kernels only add GEMM rows and never reorder a reduction, so
// the contract is bit-identity — these tests compare with memcmp, not
// tolerances.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/logic_lncl.h"
#include "core/sentiment_rules.h"
#include "crowd/simulator.h"
#include "data/embedding.h"
#include "data/sentiment_gen.h"
#include "models/logreg.h"
#include "models/model.h"
#include "models/ner_tagger.h"
#include "models/text_cnn.h"
#include "util/rng.h"

namespace lncl {
namespace {

using util::Matrix;
using util::Rng;

data::EmbeddingPtr MakeEmbeddings(int vocab, int dim, Rng* rng) {
  auto table = std::make_shared<data::EmbeddingTable>(vocab, dim);
  for (int v = 1; v < vocab; ++v) {
    for (int d = 0; d < dim; ++d) {
      table->table()(v, d) = static_cast<float>(rng->Gaussian());
    }
  }
  return table;
}

data::Instance MakeInstance(int len, int vocab, Rng* rng) {
  data::Instance x;
  for (int i = 0; i < len; ++i) {
    x.tokens.push_back(1 + rng->UniformInt(vocab - 1));
  }
  return x;
}

// Lengths exercising every packing edge: empty, shorter than any conv
// window, exact window sizes, bucket-mate duplicates, and a long tail.
std::vector<data::Instance> MixedLengthBatch(int vocab, Rng* rng) {
  std::vector<data::Instance> xs;
  for (int len : {7, 0, 3, 12, 3, 1, 5, 2, 12, 4, 30, 12, 0, 9, 7}) {
    xs.push_back(MakeInstance(len, vocab, rng));
  }
  return xs;
}

std::vector<const data::Instance*> Pointers(
    const std::vector<data::Instance>& xs) {
  std::vector<const data::Instance*> ptrs;
  for (const data::Instance& x : xs) ptrs.push_back(&x);
  return ptrs;
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what,
                    size_t i) {
  ASSERT_EQ(a.rows(), b.rows()) << what << " rows differ at " << i;
  ASSERT_EQ(a.cols(), b.cols()) << what << " cols differ at " << i;
  EXPECT_TRUE(a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0)
      << what << " bytes differ at " << i;
}

// Every instance of the batch against ForwardTrain on it alone (the model
// must have dropout 0), and against Predict, the batch of one.
void ExpectBatchMatchesTrainForward(models::Model* model,
                                    const std::vector<data::Instance>& xs) {
  std::vector<util::Matrix> batched;
  model->PredictBatch(Pointers(xs), &batched);
  ASSERT_EQ(batched.size(), xs.size());
  Rng rng(1);
  for (size_t i = 0; i < xs.size(); ++i) {
    const Matrix train_forward = model->ForwardTrain(xs[i], &rng);
    ExpectBitEqual(train_forward, batched[i], "prediction", i);
    ExpectBitEqual(model->Predict(xs[i]), batched[i], "batch of one", i);
  }
}

// ---------------------------------------------------------------- bucketing

TEST(BucketByLengthTest, DeterministicOrderAndCap) {
  Rng rng(11);
  std::vector<data::Instance> xs;
  for (int i = 0; i < models::kMaxPredictBatch + 10; ++i) {
    xs.push_back(MakeInstance(5, 40, &rng));
  }
  xs.push_back(MakeInstance(2, 40, &rng));
  const auto buckets = models::BucketByLength(Pointers(xs));
  // Ascending length; the 75-member length-5 group splits at the cap.
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].length, 2);
  ASSERT_EQ(buckets[0].members.size(), 1u);
  EXPECT_EQ(buckets[0].members[0], models::kMaxPredictBatch + 10);
  EXPECT_EQ(buckets[1].length, 5);
  EXPECT_EQ(static_cast<int>(buckets[1].members.size()),
            models::kMaxPredictBatch);
  EXPECT_EQ(buckets[2].length, 5);
  ASSERT_EQ(buckets[2].members.size(), 10u);
  // Members keep input order within a length group.
  for (int i = 0; i < models::kMaxPredictBatch; ++i) {
    EXPECT_EQ(buckets[1].members[i], i);
  }
  EXPECT_EQ(buckets[2].members[0], models::kMaxPredictBatch);
}

// ------------------------------------------------------------------ TextCnn

TEST(BatchPredictTest, TextCnnMatchesTrainForward) {
  Rng rng(101);
  auto emb = MakeEmbeddings(50, 8, &rng);
  models::TextCnnConfig mcfg;
  mcfg.feature_maps = 8;
  mcfg.dropout = 0.0;
  models::TextCnn model(mcfg, emb, &rng);
  ExpectBatchMatchesTrainForward(&model, MixedLengthBatch(50, &rng));
}

TEST(BatchPredictTest, TextCnnTrainableEmbeddingsMatchesTrainForward) {
  Rng rng(102);
  auto emb = MakeEmbeddings(50, 8, &rng);
  models::TextCnnConfig mcfg;
  mcfg.feature_maps = 8;
  mcfg.dropout = 0.0;
  mcfg.trainable_embeddings = true;
  models::TextCnn model(mcfg, emb, &rng);
  ExpectBatchMatchesTrainForward(&model, MixedLengthBatch(50, &rng));
}

TEST(BatchPredictTest, TextCnnCrossesBucketCap) {
  Rng rng(103);
  auto emb = MakeEmbeddings(50, 8, &rng);
  models::TextCnnConfig mcfg;
  mcfg.feature_maps = 8;
  mcfg.dropout = 0.0;
  models::TextCnn model(mcfg, emb, &rng);
  std::vector<data::Instance> xs;
  for (int i = 0; i < models::kMaxPredictBatch + 17; ++i) {
    xs.push_back(MakeInstance(6, 50, &rng));
  }
  ExpectBatchMatchesTrainForward(&model, xs);
}

// ---------------------------------------------------------------- NerTagger

TEST(BatchPredictTest, NerTaggerGruMatchesTrainForward) {
  Rng rng(104);
  auto emb = MakeEmbeddings(40, 6, &rng);
  models::NerTaggerConfig mcfg;
  mcfg.conv_features = 16;
  mcfg.gru_hidden = 8;
  mcfg.dropout = 0.0;
  models::NerTagger model(mcfg, emb, &rng);
  ExpectBatchMatchesTrainForward(&model, MixedLengthBatch(40, &rng));
}

TEST(BatchPredictTest, NerTaggerLstmMatchesTrainForward) {
  Rng rng(105);
  auto emb = MakeEmbeddings(40, 6, &rng);
  models::NerTaggerConfig mcfg;
  mcfg.conv_features = 16;
  mcfg.gru_hidden = 8;
  mcfg.dropout = 0.0;
  mcfg.recurrent = models::NerTaggerConfig::Recurrent::kLstm;
  models::NerTagger model(mcfg, emb, &rng);
  ExpectBatchMatchesTrainForward(&model, MixedLengthBatch(40, &rng));
}

// ----------------------------------------------------- LogisticRegression

TEST(BatchPredictTest, LogRegMatchesTrainForward) {
  Rng rng(106);
  auto emb = MakeEmbeddings(40, 6, &rng);
  models::LogisticRegression model(2, emb, &rng);
  ExpectBatchMatchesTrainForward(&model, MixedLengthBatch(40, &rng));
}

// ------------------------------------------------------------- empty batch

TEST(BatchPredictTest, EmptyBatch) {
  Rng rng(107);
  auto emb = MakeEmbeddings(40, 6, &rng);
  models::TextCnnConfig mcfg;
  mcfg.feature_maps = 8;
  models::TextCnn cnn(mcfg, emb, &rng);
  models::LogisticRegression logreg(2, emb, &rng);
  std::vector<util::Matrix> out = {Matrix(1, 1)};  // must be cleared
  cnn.PredictBatch({}, &out);
  EXPECT_TRUE(out.empty());
  out = {Matrix(1, 1)};
  logreg.PredictBatch({}, &out);
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------- full Fit + teacher equivalence

class FitEquivalenceTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 150, 40, 40, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 12;
    auto sim = crowd::CrowdSimulator::MakeClassification(ccfg, 2, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.Annotate(corpus_.train, &rng));
    models::TextCnnConfig mcfg;
    mcfg.feature_maps = 8;
    factory_ = models::TextCnn::Factory(mcfg, corpus_.embeddings);
  }

  struct Snapshot {
    core::LogicLnclResult result;
    std::vector<std::vector<float>> params;
    std::vector<util::Matrix> qf;
    std::vector<util::Matrix> teacher;
  };

  // Full Logic-LNCL fit with the "but" rule (so ProjectBatch's inner
  // clause-B predictions are exercised), then a teacher pass on the test
  // split.
  Snapshot Run(bool batch_predict, int threads) const {
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
    core::LogicLncl learner(config, std::move(model), &rule, factory_);
    Snapshot snap;
    snap.result = learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
    for (nn::Parameter* p : learner.model()->Params()) {
      snap.params.emplace_back(p->value.data(),
                               p->value.data() + p->value.size());
    }
    snap.qf = learner.qf();
    if (batch_predict) {
      snap.teacher = learner.PredictTeacherBatch(corpus_.test);
    } else {
      for (const data::Instance& x : corpus_.test.instances) {
        snap.teacher.push_back(learner.PredictTeacher(x));
      }
    }
    return snap;
  }

  void ExpectIdentical(const Snapshot& a, const Snapshot& b) const {
    ASSERT_EQ(a.result.dev_curve.size(), b.result.dev_curve.size());
    for (size_t i = 0; i < a.result.dev_curve.size(); ++i) {
      EXPECT_EQ(a.result.dev_curve[i], b.result.dev_curve[i])
          << "dev score diverges at epoch " << i;
    }
    ASSERT_EQ(a.result.loss_curve.size(), b.result.loss_curve.size());
    for (size_t i = 0; i < a.result.loss_curve.size(); ++i) {
      EXPECT_EQ(a.result.loss_curve[i], b.result.loss_curve[i])
          << "loss diverges at epoch " << i;
    }
    EXPECT_EQ(a.result.best_epoch, b.result.best_epoch);
    EXPECT_EQ(a.result.best_dev_score, b.result.best_dev_score);
    ASSERT_EQ(a.params.size(), b.params.size());
    for (size_t i = 0; i < a.params.size(); ++i) {
      ASSERT_EQ(a.params[i].size(), b.params[i].size());
      EXPECT_TRUE(a.params[i].empty() ||
                  std::memcmp(a.params[i].data(), b.params[i].data(),
                              a.params[i].size() * sizeof(float)) == 0)
          << "parameter " << i << " differs";
    }
    ASSERT_EQ(a.qf.size(), b.qf.size());
    for (size_t i = 0; i < a.qf.size(); ++i) {
      ExpectBitEqual(a.qf[i], b.qf[i], "q_f", i);
    }
    ASSERT_EQ(a.teacher.size(), b.teacher.size());
    for (size_t i = 0; i < a.teacher.size(); ++i) {
      ExpectBitEqual(a.teacher[i], b.teacher[i], "teacher", i);
    }
  }

  data::SentimentCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
};

TEST_F(FitEquivalenceTest, BatchedFitMatchesPerInstanceSerialSlots) {
  ExpectIdentical(Run(/*batch_predict=*/true, /*threads=*/1),
                  Run(/*batch_predict=*/false, /*threads=*/1));
}

TEST_F(FitEquivalenceTest, BatchedFitMatchesPerInstanceParallel) {
  ExpectIdentical(Run(/*batch_predict=*/true, /*threads=*/4),
                  Run(/*batch_predict=*/false, /*threads=*/4));
}

TEST_F(FitEquivalenceTest, BatchedFitDeterministicAcrossThreadCounts) {
  // Determinism regression with batching enabled: the bucketed kernels keep
  // the threads-invariance guarantee of DESIGN.md §5.
  ExpectIdentical(Run(/*batch_predict=*/true, /*threads=*/1),
                  Run(/*batch_predict=*/true, /*threads=*/4));
}

}  // namespace
}  // namespace lncl
