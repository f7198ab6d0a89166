#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "data/embedding.h"
#include "models/crf_tagger.h"
#include "models/logreg.h"
#include "models/model.h"
#include "models/ner_tagger.h"
#include "models/text_cnn.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dropout.h"
#include "nn/gradcheck.h"
#include "nn/linear.h"
#include "nn/maxpool.h"
#include "nn/optimizer.h"
#include "nn/softmax.h"
#include "util/rng.h"

namespace lncl::models {
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

data::Instance MakeInstance(int len, int vocab, Rng* rng, bool sequence,
                            int num_classes) {
  data::Instance x;
  for (int i = 0; i < len; ++i) x.tokens.push_back(1 + rng->UniformInt(vocab - 1));
  if (sequence) {
    for (int i = 0; i < len; ++i) x.tag_labels.push_back(rng->UniformInt(num_classes));
  } else {
    x.label = rng->UniformInt(num_classes);
  }
  return x;
}

void ExpectRowStochastic(const Matrix& p) {
  for (int r = 0; r < p.rows(); ++r) {
    double sum = 0.0;
    for (int c = 0; c < p.cols(); ++c) {
      EXPECT_GE(p(r, c), 0.0f);
      sum += p(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

// Generic soft-target gradient check for any Model.
void RunModelGradCheck(Model* model, const data::Instance& x,
                       const Matrix& q, Rng* rng, double tol) {
  // Deterministic loss: fixed rng clone for dropout inside forward.
  auto loss_fn = [&]() {
    Rng fixed(12345);
    const Matrix& p = model->ForwardTrain(x, &fixed);
    return nn::CrossEntropyRows(q, p);
  };
  auto compute_grads = [&]() {
    nn::ZeroGrads(model->Params());
    Rng fixed(12345);
    model->ForwardTrain(x, &fixed);
    model->BackwardSoftTarget(q, 1.0f);
  };
  const nn::GradCheckResult r = nn::CheckGradients(
      loss_fn, compute_grads, model->Params(), rng, 1e-3, 8);
  EXPECT_LT(r.max_rel_error, tol) << "abs " << r.max_abs_error;
}

// ---------------------------------------------------------------- TextCnn --

TEST(TextCnnTest, PredictShapeAndNormalization) {
  Rng rng(1);
  auto emb = MakeEmbeddings(50, 8, &rng);
  TextCnnConfig config;
  config.feature_maps = 4;
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(12, 50, &rng, false, 2);
  const Matrix p = cnn.Predict(x);
  EXPECT_EQ(p.rows(), 1);
  EXPECT_EQ(p.cols(), 2);
  ExpectRowStochastic(p);
  EXPECT_EQ(cnn.NumItems(x), 1);
}

TEST(TextCnnTest, HandlesShortSentences) {
  Rng rng(2);
  auto emb = MakeEmbeddings(50, 8, &rng);
  TextCnnConfig config;
  config.feature_maps = 4;
  TextCnn cnn(config, emb, &rng);
  for (int len = 1; len <= 6; ++len) {
    const data::Instance x = MakeInstance(len, 50, &rng, false, 2);
    const Matrix p = cnn.Predict(x);
    ExpectRowStochastic(p);
  }
}

TEST(TextCnnTest, GradientCheckNoDropout) {
  Rng rng(3);
  auto emb = MakeEmbeddings(40, 6, &rng);
  TextCnnConfig config;
  config.feature_maps = 3;
  config.dropout = 0.0;  // deterministic for finite differences
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(9, 40, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 0) = 0.3f;
  q(0, 1) = 0.7f;
  RunModelGradCheck(&cnn, x, q, &rng, 2e-2);
}

TEST(TextCnnTest, GradientCheckWithFixedDropoutMask) {
  Rng rng(4);
  auto emb = MakeEmbeddings(40, 6, &rng);
  TextCnnConfig config;
  config.feature_maps = 3;
  config.dropout = 0.5;
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(9, 40, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 0) = 1.0f;
  // The fixed-seed rng inside RunModelGradCheck makes the mask reproducible.
  RunModelGradCheck(&cnn, x, q, &rng, 2e-2);
}

TEST(TextCnnTest, TrainingReducesLossOnOneInstance) {
  Rng rng(5);
  auto emb = MakeEmbeddings(40, 8, &rng);
  TextCnnConfig config;
  config.feature_maps = 4;
  config.dropout = 0.0;
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(10, 40, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 0) = 1.0f;
  nn::Sgd sgd(0.5);
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 30; ++step) {
    cnn.ForwardTrain(x, &rng);
    const double loss = cnn.BackwardSoftTarget(q, 1.0f);
    if (step == 0) first = loss;
    last = loss;
    sgd.Step(cnn.Params());
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(TextCnnTest, FactoryProducesIndependentModels) {
  Rng rng(6);
  auto emb = MakeEmbeddings(40, 8, &rng);
  TextCnnConfig config;
  config.feature_maps = 4;
  auto factory = TextCnn::Factory(config, emb);
  auto m1 = factory(&rng);
  auto m2 = factory(&rng);
  const data::Instance x = MakeInstance(10, 40, &rng, false, 2);
  const Matrix p1 = m1->Predict(x);
  const Matrix p2 = m2->Predict(x);
  EXPECT_NE(p1(0, 0), p2(0, 0));  // different random init
}


TEST(TextCnnTest, PooledBackwardMatchesDenseReferenceBitwise) {
  // TextCnn's backward applies one rank-1 update per filter at its argmax
  // row (Conv1d::BackwardPooled). With static embeddings its gradients must
  // be bit-equal to the dense route: the layers' own forward, a T x F
  // pooled gradient that is zero off the argmax rows, ReluBackward, then
  // Conv1d::Backward. Lengths 1..9 are shorter than twice every window
  // (3, 4, 5); the rest are longer. Gradients accumulate over all of them.
  Rng rng(21);
  auto emb = MakeEmbeddings(60, 8, &rng);
  TextCnnConfig config;
  TextCnn cnn(config, emb, &rng);
  const int f = config.feature_maps;
  const int num_windows = static_cast<int>(config.windows.size());
  const std::vector<nn::Parameter*> params = cnn.Params();
  ASSERT_EQ(params.size(), static_cast<size_t>(2 * num_windows + 2));

  // Reference layers holding the same weights.
  Rng init(0);
  std::vector<std::unique_ptr<nn::Conv1d>> convs;
  std::vector<nn::Parameter*> ref_params;
  for (int wi = 0; wi < num_windows; ++wi) {
    convs.push_back(std::make_unique<nn::Conv1d>(
        "ref.conv", config.windows[wi], emb->dim(), f,
        nn::Conv1d::Padding::kValid, &init));
    for (nn::Parameter* p : convs.back()->Params()) ref_params.push_back(p);
  }
  nn::Linear fc("ref.fc", num_windows * f, config.num_classes, &init);
  for (nn::Parameter* p : fc.Params()) ref_params.push_back(p);
  for (size_t i = 0; i < params.size(); ++i) {
    ref_params[i]->value = params[i]->value;
  }
  nn::ZeroGrads(params);
  nn::ZeroGrads(ref_params);

  for (const int len : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 21, 40}) {
    SCOPED_TRACE(testing::Message() << "len=" << len);
    const data::Instance x = MakeInstance(len, 60, &rng, false, 2);
    util::Vector qv = {0.3f, 0.7f};
    Matrix q(1, 2);
    q(0, 0) = qv[0];
    q(0, 1) = qv[1];
    const uint64_t seed = 100 + static_cast<uint64_t>(len);
    Rng cnn_rng(seed);
    cnn.ForwardTrain(x, &cnn_rng);
    cnn.BackwardSoftTarget(q, 0.7f);

    Rng ref_rng(seed);
    Matrix embedded;
    emb->Lookup(x.tokens, &embedded);
    util::Vector feat(static_cast<size_t>(num_windows) * f);
    std::vector<Matrix> post(num_windows);
    std::vector<std::vector<int>> argmax(num_windows);
    for (int wi = 0; wi < num_windows; ++wi) {
      convs[wi]->Forward(embedded, &post[wi], util::Act::kRelu);
      util::Vector pooled;
      nn::MaxOverTimeForward(post[wi], &pooled, &argmax[wi]);
      std::copy(pooled.begin(), pooled.end(), feat.begin() + wi * f);
    }
    std::vector<uint8_t> mask;
    nn::DropoutForward(config.dropout, &ref_rng, &feat, &mask);
    util::Vector logits, probs, grad_logits, grad_feat;
    fc.Forward(feat, &logits);
    nn::Softmax(logits, &probs);
    nn::SoftmaxCrossEntropyGrad(qv, probs, 0.7f, &grad_logits);
    fc.Backward(feat, grad_logits, &grad_feat);
    nn::DropoutBackward(config.dropout, mask, &grad_feat);
    for (int wi = 0; wi < num_windows; ++wi) {
      Matrix grad_post(post[wi].rows(), f);
      for (int c = 0; c < f; ++c) {
        grad_post(argmax[wi][c], c) = grad_feat[wi * f + c];
      }
      nn::ReluBackward(post[wi], &grad_post);
      convs[wi]->Backward(embedded, grad_post, nullptr);
    }

    for (size_t i = 0; i < params.size(); ++i) {
      const Matrix& got = params[i]->grad;
      const Matrix& want = ref_params[i]->grad;
      ASSERT_EQ(got.size(), want.size()) << params[i]->name;
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << params[i]->name;
    }
  }
}

TEST(TextCnnTest, TrainableEmbeddingsGradientCheck) {
  Rng rng(15);
  auto emb = MakeEmbeddings(40, 6, &rng);
  TextCnnConfig config;
  config.feature_maps = 3;
  config.dropout = 0.0;
  config.trainable_embeddings = true;
  TextCnn cnn(config, emb, &rng);
  // The table itself is now a parameter.
  EXPECT_EQ(cnn.Params().front()->name, "cnn.emb.table");
  const data::Instance x = MakeInstance(9, 40, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 1) = 1.0f;
  RunModelGradCheck(&cnn, x, q, &rng, 2e-2);
}

TEST(TextCnnTest, TrainableEmbeddingsActuallyMove) {
  Rng rng(16);
  auto emb = MakeEmbeddings(40, 6, &rng);
  TextCnnConfig config;
  config.feature_maps = 3;
  config.dropout = 0.0;
  config.trainable_embeddings = true;
  TextCnn cnn(config, emb, &rng);
  const data::Instance x = MakeInstance(9, 40, &rng, false, 2);
  nn::Parameter* table = cnn.Params().front();
  const Matrix before = table->value;
  const Matrix shared_before = emb->table();
  Matrix q(1, 2);
  q(0, 0) = 1.0f;
  nn::Sgd sgd(0.5);
  for (int step = 0; step < 5; ++step) {
    cnn.ForwardTrain(x, &rng);
    cnn.BackwardSoftTarget(q, 1.0f);
    sgd.Step(cnn.Params());
  }
  // Some embedding row used by the instance moved...
  double moved = 0.0;
  for (int v = 0; v < table->value.rows(); ++v) {
    for (int d = 0; d < table->value.cols(); ++d) {
      moved += std::fabs(table->value(v, d) - before(v, d));
    }
  }
  EXPECT_GT(moved, 1e-4);
  // ...while the shared static table is untouched.
  for (int v = 0; v < shared_before.rows(); ++v) {
    for (int d = 0; d < shared_before.cols(); ++d) {
      ASSERT_FLOAT_EQ(emb->table()(v, d), shared_before(v, d));
    }
  }
}

// -------------------------------------------------------------- NerTagger --

TEST(NerTaggerTest, PredictShape) {
  Rng rng(7);
  auto emb = MakeEmbeddings(60, 8, &rng);
  NerTaggerConfig config;
  config.conv_features = 6;
  config.gru_hidden = 5;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(11, 60, &rng, true, 9);
  const Matrix p = tagger.Predict(x);
  EXPECT_EQ(p.rows(), 11);
  EXPECT_EQ(p.cols(), 9);
  ExpectRowStochastic(p);
  EXPECT_EQ(tagger.NumItems(x), 11);
}

TEST(NerTaggerTest, GradientCheckNoDropout) {
  Rng rng(8);
  auto emb = MakeEmbeddings(30, 5, &rng);
  NerTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.dropout = 0.0;
  config.num_classes = 4;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(6, 30, &rng, true, 4);
  Matrix q(6, 4);
  Rng qrng(9);
  for (int t = 0; t < 6; ++t) {
    float sum = 0.0f;
    for (int c = 0; c < 4; ++c) {
      q(t, c) = static_cast<float>(qrng.Uniform(0.1, 1.0));
      sum += q(t, c);
    }
    for (int c = 0; c < 4; ++c) q(t, c) /= sum;
  }
  RunModelGradCheck(&tagger, x, q, &rng, 3e-2);
}

TEST(NerTaggerTest, GradientCheckWithDropout) {
  Rng rng(10);
  auto emb = MakeEmbeddings(30, 5, &rng);
  NerTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.dropout = 0.4;
  config.num_classes = 3;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(5, 30, &rng, true, 3);
  Matrix q(5, 3);
  for (int t = 0; t < 5; ++t) q(t, t % 3) = 1.0f;
  RunModelGradCheck(&tagger, x, q, &rng, 3e-2);
}

TEST(NerTaggerTest, LearnsConstantTag) {
  Rng rng(11);
  auto emb = MakeEmbeddings(30, 6, &rng);
  NerTaggerConfig config;
  config.conv_features = 6;
  config.gru_hidden = 4;
  config.dropout = 0.0;
  config.num_classes = 3;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(8, 30, &rng, true, 3);
  Matrix q(8, 3);
  for (int t = 0; t < 8; ++t) q(t, 1) = 1.0f;
  nn::Adam adam(0.02);
  for (int step = 0; step < 60; ++step) {
    tagger.ForwardTrain(x, &rng);
    tagger.BackwardSoftTarget(q, 1.0f);
    adam.Step(tagger.Params());
  }
  const Matrix p = tagger.Predict(x);
  for (int t = 0; t < 8; ++t) EXPECT_GT(p(t, 1), 0.8f);
}


TEST(NerTaggerTest, LstmVariantGradientCheck) {
  Rng rng(30);
  auto emb = MakeEmbeddings(30, 5, &rng);
  NerTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.dropout = 0.0;
  config.num_classes = 4;
  config.recurrent = NerTaggerConfig::Recurrent::kLstm;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(6, 30, &rng, true, 4);
  Matrix q(6, 4);
  for (int t = 0; t < 6; ++t) q(t, t % 4) = 1.0f;
  RunModelGradCheck(&tagger, x, q, &rng, 3e-2);
}

TEST(NerTaggerTest, LstmVariantPredictShape) {
  Rng rng(31);
  auto emb = MakeEmbeddings(30, 5, &rng);
  NerTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.recurrent = NerTaggerConfig::Recurrent::kLstm;
  NerTagger tagger(config, emb, &rng);
  const data::Instance x = MakeInstance(7, 30, &rng, true, 9);
  const Matrix p = tagger.Predict(x);
  EXPECT_EQ(p.rows(), 7);
  EXPECT_EQ(p.cols(), 9);
  ExpectRowStochastic(p);
}

// ----------------------------------------------------- LogisticRegression --

TEST(LogisticRegressionTest, PredictAndGradCheck) {
  Rng rng(12);
  auto emb = MakeEmbeddings(30, 6, &rng);
  LogisticRegression lr(3, emb, &rng);
  const data::Instance x = MakeInstance(7, 30, &rng, false, 3);
  const Matrix p = lr.Predict(x);
  EXPECT_EQ(p.rows(), 1);
  EXPECT_EQ(p.cols(), 3);
  ExpectRowStochastic(p);

  Matrix q(1, 3);
  q(0, 2) = 1.0f;
  RunModelGradCheck(&lr, x, q, &rng, 1e-2);
}

TEST(LogisticRegressionTest, EmptyTokenListSafe) {
  Rng rng(13);
  auto emb = MakeEmbeddings(30, 6, &rng);
  LogisticRegression lr(2, emb, &rng);
  data::Instance x;
  x.label = 0;
  const Matrix p = lr.Predict(x);
  ExpectRowStochastic(p);
}

TEST(ModelProbGradTest, BackwardProbGradMatchesSoftTargetDirection) {
  // For loss CE(q, p), dL/dp = -q/p. Feeding that through BackwardProbGrad
  // must match BackwardSoftTarget gradients.
  Rng rng(14);
  auto emb = MakeEmbeddings(30, 6, &rng);
  LogisticRegression lr(2, emb, &rng);
  const data::Instance x = MakeInstance(5, 30, &rng, false, 2);
  Matrix q(1, 2);
  q(0, 0) = 0.4f;
  q(0, 1) = 0.6f;

  Rng fixed(999);
  nn::ZeroGrads(lr.Params());
  const Matrix& p = lr.ForwardTrain(x, &fixed);
  lr.BackwardSoftTarget(q, 1.0f);
  Matrix grad_soft = lr.Params()[0]->grad;

  nn::ZeroGrads(lr.Params());
  Rng fixed2(999);
  lr.ForwardTrain(x, &fixed2);
  Matrix grad_p(1, 2);
  grad_p(0, 0) = -q(0, 0) / p(0, 0);
  grad_p(0, 1) = -q(0, 1) / p(0, 1);
  lr.BackwardProbGrad(grad_p, 1.0f);
  Matrix grad_prob_path = lr.Params()[0]->grad;

  for (int r = 0; r < grad_soft.rows(); ++r) {
    for (int c = 0; c < grad_soft.cols(); ++c) {
      EXPECT_NEAR(grad_soft(r, c), grad_prob_path(r, c), 1e-4);
    }
  }
}


// -------------------------------------------------------------- CrfTagger --

TEST(CrfTaggerTest, MarginalsAreRowStochastic) {
  Rng rng(20);
  auto emb = MakeEmbeddings(40, 6, &rng);
  CrfTaggerConfig config;
  config.conv_features = 5;
  config.gru_hidden = 4;
  config.num_classes = 4;
  CrfTagger crf(config, emb, &rng);
  const data::Instance x = MakeInstance(7, 40, &rng, true, 4);
  const Matrix p = crf.Predict(x);
  EXPECT_EQ(p.rows(), 7);
  EXPECT_EQ(p.cols(), 4);
  ExpectRowStochastic(p);
}

TEST(CrfTaggerTest, GradientCheckNllAgainstFiniteDifferences) {
  Rng rng(21);
  auto emb = MakeEmbeddings(30, 5, &rng);
  CrfTaggerConfig config;
  config.conv_features = 4;
  config.gru_hidden = 3;
  config.dropout = 0.0;
  config.num_classes = 3;
  CrfTagger crf(config, emb, &rng);
  const data::Instance x = MakeInstance(5, 30, &rng, true, 3);
  Matrix q(5, 3);
  for (int t = 0; t < 5; ++t) q(t, (t * 2) % 3) = 1.0f;

  auto loss_fn = [&]() {
    // BackwardSoftTarget both computes the loss and accumulates grads; the
    // checker compares against the grads from compute_grads, so save and
    // restore them around the probe evaluation.
    const std::vector<nn::Parameter*> params = crf.Params();
    std::vector<Matrix> saved;
    for (nn::Parameter* p : params) saved.push_back(p->grad);
    Rng fixed(7);
    crf.ForwardTrain(x, &fixed);
    const double loss = crf.BackwardSoftTarget(q, 1.0f);
    for (size_t i = 0; i < params.size(); ++i) params[i]->grad = saved[i];
    return loss;
  };
  auto compute_grads = [&]() {
    nn::ZeroGrads(crf.Params());
    Rng fixed(7);
    crf.ForwardTrain(x, &fixed);
    crf.BackwardSoftTarget(q, 1.0f);
  };
  const nn::GradCheckResult r = nn::CheckGradients(
      loss_fn, compute_grads, crf.Params(), &rng, 1e-3, 8);
  EXPECT_LT(r.max_rel_error, 3e-2) << "abs " << r.max_abs_error;
}

TEST(CrfTaggerTest, LearnsTransitionStructure) {
  // Supervision where class 1 is ALWAYS followed by class 2. After training,
  // the learned transition score T(1, 2) should dominate row 1.
  Rng rng(22);
  auto emb = MakeEmbeddings(30, 6, &rng);
  CrfTaggerConfig config;
  config.conv_features = 6;
  config.gru_hidden = 4;
  config.dropout = 0.0;
  config.num_classes = 3;
  CrfTagger crf(config, emb, &rng);
  nn::Adam adam(0.05);
  for (int step = 0; step < 120; ++step) {
    data::Instance x = MakeInstance(6, 30, &rng, true, 3);
    Matrix q(6, 3);
    for (int t = 0; t < 6; ++t) {
      const int label = t % 2 == 0 ? 1 : 2;  // 1 2 1 2 ...
      q(t, label) = 1.0f;
    }
    crf.ForwardTrain(x, &rng);
    crf.BackwardSoftTarget(q, 1.0f);
    adam.Step(crf.Params());
  }
  // Inspect the transition parameter through Params() (index: conv 2 +
  // gru 9 + fc 2 = 13 -> transition at 13).
  const nn::Parameter* transition = crf.Params()[13];
  ASSERT_EQ(transition->name, "crf.transition");
  EXPECT_GT(transition->value(1, 2), transition->value(1, 0));
  EXPECT_GT(transition->value(1, 2), transition->value(1, 1));
}

TEST(CrfTaggerTest, ViterbiAgreesWithMarginalsOnConfidentInput) {
  Rng rng(23);
  auto emb = MakeEmbeddings(40, 6, &rng);
  CrfTaggerConfig config;
  config.conv_features = 5;
  config.gru_hidden = 4;
  config.num_classes = 4;
  CrfTagger crf(config, emb, &rng);
  const data::Instance x = MakeInstance(6, 40, &rng, true, 4);
  const std::vector<int> viterbi = crf.Decode(x);
  ASSERT_EQ(viterbi.size(), 6u);
  for (int v : viterbi) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 4);
  }
}

TEST(CrfTaggerDeathTest, ProbGradPathAborts) {
  Rng rng(24);
  auto emb = MakeEmbeddings(20, 4, &rng);
  CrfTaggerConfig config;
  config.conv_features = 3;
  config.gru_hidden = 3;
  config.num_classes = 3;
  CrfTagger crf(config, emb, &rng);
  const data::Instance x = MakeInstance(4, 20, &rng, true, 3);
  crf.ForwardTrain(x, &rng);
  Matrix g(4, 3);
  EXPECT_DEATH(crf.BackwardProbGrad(g, 1.0f), "CrfTagger");
}

}  // namespace
}  // namespace lncl::models
