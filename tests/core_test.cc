#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "core/logic_lncl.h"
#include "core/ner_rules.h"
#include "core/sentiment_rules.h"
#include "core/trainer.h"
#include "crowd/simulator.h"
#include "data/sentiment_gen.h"
#include "eval/metrics.h"
#include "inference/truth_inference.h"
#include "models/logreg.h"
#include "models/text_cnn.h"
#include "util/rng.h"

namespace lncl::core {
namespace {

using util::Matrix;
using util::Rng;

// ------------------------------------------------------------- Schedules --

TEST(KScheduleTest, PaperSchedules) {
  const KSchedule sent = SentimentKSchedule();
  const KSchedule ner = NerKSchedule();
  // Monotone increasing, bounded by the caps.
  double prev_s = -1.0, prev_n = -1.0;
  for (int t = 0; t < 60; ++t) {
    const double s = sent(t);
    const double n = ner(t);
    EXPECT_GE(s, prev_s);
    EXPECT_GE(n, prev_n);
    EXPECT_LE(s, 1.0);
    EXPECT_LE(n, 0.8);
    prev_s = s;
    prev_n = n;
  }
  // k(0) = 1 - 0.94 = 0.06 for sentiment.
  EXPECT_NEAR(sent(0), 0.06, 1e-9);
  EXPECT_NEAR(ner(0), 0.10, 1e-9);
  EXPECT_NEAR(ner(59), 0.8, 1e-9);  // cap reached
  EXPECT_DOUBLE_EQ(ConstantK(0.4)(17), 0.4);
}

// --------------------------------------------------------------- ComputeQa --

TEST(ComputeQaTest, MatchesHandComputedBayes) {
  // Two classes, classifier prior (0.6, 0.4), one annotator with known
  // confusion, label = 1.
  Matrix probs(1, 2);
  probs(0, 0) = 0.6f;
  probs(0, 1) = 0.4f;
  crowd::ConfusionSet confusions{crowd::ConfusionMatrix(2, 0.8)};
  crowd::InstanceAnnotations ann;
  ann.entries.push_back({0, {1}});
  const Matrix qa = ComputeQa(probs, ann, LogConfusions(confusions));
  // q(0) ∝ 0.6 * pi(0,1) = 0.6*0.2 = 0.12 ; q(1) ∝ 0.4 * 0.8 = 0.32.
  EXPECT_NEAR(qa(0, 0), 0.12 / 0.44, 1e-5);
  EXPECT_NEAR(qa(0, 1), 0.32 / 0.44, 1e-5);
}

TEST(ComputeQaTest, NoAnnotationsReturnsPrior) {
  Matrix probs(2, 3);
  for (int t = 0; t < 2; ++t) {
    probs(t, 0) = 0.2f;
    probs(t, 1) = 0.5f;
    probs(t, 2) = 0.3f;
  }
  crowd::InstanceAnnotations ann;
  const Matrix qa =
      ComputeQa(probs, ann, LogConfusions(crowd::ConfusionSet{}));
  for (int t = 0; t < 2; ++t) {
    EXPECT_NEAR(qa(t, 1), 0.5, 1e-5);
  }
}

TEST(ComputeQaTest, MultipleAnnotatorsMultiply) {
  Matrix probs(1, 2);
  probs(0, 0) = 0.5f;
  probs(0, 1) = 0.5f;
  crowd::ConfusionSet confusions{crowd::ConfusionMatrix(2, 0.9),
                                 crowd::ConfusionMatrix(2, 0.9)};
  crowd::InstanceAnnotations ann;
  ann.entries.push_back({0, {0}});
  ann.entries.push_back({1, {0}});
  const Matrix qa = ComputeQa(probs, ann, LogConfusions(confusions));
  // q(0) ∝ 0.5 * 0.9 * 0.9 ; q(1) ∝ 0.5 * 0.1 * 0.1.
  EXPECT_NEAR(qa(0, 0), 0.81 / 0.82, 1e-5);
}

// --------------------------------------------------------- UpdateConfusions --

TEST(UpdateConfusionsTest, MatchesEq12OnToyData) {
  // One annotator, two instances with hard q_f.
  crowd::AnnotationSet ann(2, 1, 2);
  ann.instance(0).entries.push_back({0, {1}});
  ann.instance(1).entries.push_back({0, {1}});
  std::vector<Matrix> qf;
  Matrix q0(1, 2), q1(1, 2);
  q0(0, 0) = 1.0f;  // truth 0, annotator said 1 -> confusion (0,1)
  q1(0, 1) = 1.0f;  // truth 1, annotator said 1 -> confusion (1,1)
  qf.push_back(q0);
  qf.push_back(q1);
  crowd::ConfusionSet confusions;
  util::Parallelizer exec;
  UpdateConfusions(qf, ann, 0.0, &confusions, &exec);
  EXPECT_NEAR(confusions[0](0, 1), 1.0, 1e-5);
  EXPECT_NEAR(confusions[0](1, 1), 1.0, 1e-5);
}

TEST(UpdateConfusionsTest, SoftCountsWeighted) {
  crowd::AnnotationSet ann(1, 1, 2);
  ann.instance(0).entries.push_back({0, {0}});
  std::vector<Matrix> qf;
  Matrix q(1, 2);
  q(0, 0) = 0.75f;
  q(0, 1) = 0.25f;
  qf.push_back(q);
  crowd::ConfusionSet confusions;
  util::Parallelizer exec;
  UpdateConfusions(qf, ann, 0.0, &confusions, &exec);
  // Row 0: all mass on reported label 0. Row 1: likewise.
  EXPECT_NEAR(confusions[0](0, 0), 1.0, 1e-5);
  EXPECT_NEAR(confusions[0](1, 0), 1.0, 1e-5);
}

// ------------------------------------------------------------ EarlyStopper --

TEST(EarlyStopperTest, StopsAfterPatienceAndRestoresBest) {
  nn::Parameter p("p", 1, 1);
  EarlyStopper stopper(2);
  p.value(0, 0) = 1.0f;
  EXPECT_FALSE(stopper.Update(0.5, {&p}));  // best
  p.value(0, 0) = 2.0f;
  EXPECT_FALSE(stopper.Update(0.8, {&p}));  // new best
  p.value(0, 0) = 3.0f;
  EXPECT_FALSE(stopper.Update(0.7, {&p}));  // worse (1)
  p.value(0, 0) = 4.0f;
  EXPECT_TRUE(stopper.Update(0.6, {&p}));  // worse (2) -> stop
  stopper.Restore({&p});
  EXPECT_FLOAT_EQ(p.value(0, 0), 2.0f);
  EXPECT_DOUBLE_EQ(stopper.best_score(), 0.8);
  EXPECT_EQ(stopper.best_epoch(), 1);
}

TEST(EarlyStopperTest, TieDoesNotCountAsImprovement) {
  nn::Parameter p("p", 1, 1);
  EarlyStopper stopper(1);
  EXPECT_FALSE(stopper.Update(0.5, {&p}));
  EXPECT_TRUE(stopper.Update(0.5, {&p}));  // tie -> patience exhausted
}

// ---------------------------------------------------------- AnnotatorCount --

TEST(AnnotatorCountWeightsTest, CountsEntries) {
  crowd::AnnotationSet ann(2, 3, 2);
  ann.instance(0).entries.push_back({0, {1}});
  ann.instance(0).entries.push_back({1, {0}});
  ann.instance(1).entries.push_back({2, {1}});
  const std::vector<float> w = AnnotatorCountWeights(ann);
  EXPECT_FLOAT_EQ(w[0], 2.0f);
  EXPECT_FLOAT_EQ(w[1], 1.0f);
}


TEST(RunMinibatchEpochTest, LossDecreasesOverEpochs) {
  Rng rng(70);
  auto emb = std::make_shared<data::EmbeddingTable>(20, 4);
  for (int v = 1; v < 20; ++v) {
    for (int d = 0; d < 4; ++d) {
      emb->table()(v, d) = static_cast<float>(rng.Gaussian());
    }
  }
  data::Dataset train;
  train.num_classes = 2;
  std::vector<Matrix> targets;
  for (int i = 0; i < 40; ++i) {
    data::Instance x;
    for (int t = 0; t < 5; ++t) x.tokens.push_back(1 + rng.UniformInt(19));
    x.label = rng.UniformInt(2);
    train.instances.push_back(x);
    Matrix q(1, 2);
    q(0, x.label) = 1.0f;
    targets.push_back(q);
  }
  models::LogisticRegression model(2, emb, &rng);
  nn::Adam opt(0.05);
  util::Parallelizer exec;
  double first = 0.0, last = 0.0;
  for (int epoch = 0; epoch < 15; ++epoch) {
    const double loss = RunMinibatchEpochSharded(train, targets, {}, 8, &model,
                                                 {&model}, &opt, &rng, &exec);
    if (epoch == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

TEST(RunMinibatchEpochTest, WeightsScaleTheLoss) {
  Rng rng(71);
  auto emb = std::make_shared<data::EmbeddingTable>(10, 3);
  data::Dataset train;
  train.num_classes = 2;
  data::Instance x;
  x.tokens = {1, 2};
  x.label = 0;
  train.instances.push_back(x);
  Matrix q(1, 2);
  q(0, 0) = 1.0f;
  std::vector<Matrix> targets = {q};

  models::LogisticRegression a(2, emb, &rng);
  models::LogisticRegression b(2, emb, &rng);
  // Same params for a fair comparison.
  for (size_t i = 0; i < a.Params().size(); ++i) {
    b.Params()[i]->value = a.Params()[i]->value;
  }
  nn::Sgd opt_a(0.0), opt_b(0.0);  // lr 0: loss measured, params frozen
  Rng ra(1), rb(1);
  util::Parallelizer exec;
  const double plain = RunMinibatchEpochSharded(train, targets, {}, 1, &a, {&a},
                                                &opt_a, &ra, &exec);
  const double weighted = RunMinibatchEpochSharded(
      train, targets, {5.0f}, 1, &b, {&b}, &opt_b, &rb, &exec);
  EXPECT_NEAR(weighted, 5.0 * plain, 1e-6);
}

TEST(UpdateConfusionsTest, SmoothingPullsTowardUniform) {
  crowd::AnnotationSet ann(1, 1, 2);
  ann.instance(0).entries.push_back({0, {0}});
  std::vector<Matrix> qf;
  Matrix q(1, 2);
  q(0, 0) = 1.0f;
  qf.push_back(q);
  crowd::ConfusionSet sharp, smooth;
  util::Parallelizer exec;
  UpdateConfusions(qf, ann, 0.0, &sharp, &exec);
  UpdateConfusions(qf, ann, 10.0, &smooth, &exec);
  // With massive smoothing the confusion approaches uniform.
  EXPECT_GT(sharp[0](0, 0), 0.99f);
  EXPECT_NEAR(smooth[0](0, 0), 0.5, 0.05);
}

TEST(SentimentRuleTest, WrongMarkerTokenIsPassThrough) {
  SentimentButRule rule(nullptr, /*marker_token=*/42);
  data::Instance x;
  x.tokens = {1, 7, 3};
  x.contrast_index = 1;  // marker token 7 != 42: no grounding
  Matrix q(1, 2);
  q(0, 0) = 0.3f;
  q(0, 1) = 0.7f;
  const Matrix out = rule.Project(x, q, 5.0);
  EXPECT_FLOAT_EQ(out(0, 0), 0.3f);
  EXPECT_FLOAT_EQ(out(0, 1), 0.7f);
}

TEST(SentimentRuleTest, MarkerAtSentenceEndIsPassThrough) {
  SentimentButRule rule(nullptr, /*marker_token=*/7);
  data::Instance x;
  x.tokens = {1, 3, 7};
  x.contrast_index = 2;  // "but" with empty clause B
  Matrix q(1, 2);
  q(0, 0) = 0.4f;
  q(0, 1) = 0.6f;
  const Matrix out = rule.Project(x, q, 5.0);
  EXPECT_FLOAT_EQ(out(0, 1), 0.6f);
}

TEST(SentimentRuleTest, ContrastIndexPastEndIsPassThrough) {
  SentimentButRule rule(nullptr, /*marker_token=*/7);
  data::Instance x;
  x.tokens = {1, 3, 7};
  Matrix q(1, 2);
  q(0, 0) = 0.4f;
  q(0, 1) = 0.6f;
  // The bound is checked before the marker is read (ASan would flag it).
  for (const int index : {3, 5}) {
    x.contrast_index = index;
    const Matrix out = rule.Project(x, q, 5.0);
    EXPECT_EQ(out(0, 0), 0.4f) << "contrast_index=" << index;
    EXPECT_EQ(out(0, 1), 0.6f) << "contrast_index=" << index;
  }
}

TEST(SentimentRuleTest, InstanceRewrittenInPlaceFollowsNewTokens) {
  // Whether a grounding is formed is read from the tokens at each call: an
  // instance slot reused for another sentence projects like a fresh copy.
  Rng rng(9);
  auto emb = std::make_shared<data::EmbeddingTable>(12, 4);
  for (int v = 1; v < 12; ++v) {
    for (int d = 0; d < 4; ++d) {
      emb->table()(v, d) = static_cast<float>(rng.Gaussian());
    }
  }
  models::TextCnnConfig mcfg;
  mcfg.feature_maps = 4;
  const models::TextCnn cnn(mcfg, emb, &rng);
  const int but = 7;
  SentimentButRule rule(&cnn, but);
  Matrix q(1, 2);
  q(0, 0) = 0.5f;
  q(0, 1) = 0.5f;

  data::Instance x;
  x.tokens = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(rule.Project(x, q, 5.0)(0, 1), 0.5f);  // no marker: unchanged

  x.tokens = {1, 2, but, 4, 5, 6, 8, 9};
  x.contrast_index = 2;
  const data::Instance fresh = x;
  const Matrix rewritten = rule.Project(x, q, 5.0);
  const Matrix want = rule.Project(fresh, q, 5.0);
  EXPECT_NE(want(0, 1), 0.5f);  // the grounded rule moves q
  EXPECT_EQ(rewritten(0, 0), want(0, 0));
  EXPECT_EQ(rewritten(0, 1), want(0, 1));

  x.tokens = {1, 2, 3, 4, 5, 6, 8, 9};
  x.contrast_index = -1;
  EXPECT_EQ(rule.Project(x, q, 5.0)(0, 1), 0.5f);  // marker gone again
}

// --------------------------------------------------- Logic-LNCL end-to-end --

class LogicLnclSmallTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 300, 80, 80, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 25;
    auto sim = crowd::CrowdSimulator::MakeClassification(ccfg, 2, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.Annotate(corpus_.train, &rng));

    models::TextCnnConfig mcfg;
    mcfg.feature_maps = 8;
    factory_ = models::TextCnn::Factory(mcfg, corpus_.embeddings);
  }

  LogicLnclConfig SmallConfig() const {
    LogicLnclConfig config;
    config.epochs = 6;
    config.batch_size = 32;
    config.patience = 6;
    config.k_schedule = SentimentKSchedule();
    config.optimizer.kind = "adadelta";
    config.optimizer.lr = 1.0;
    return config;
  }

  data::SentimentCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
};

TEST_F(LogicLnclSmallTest, FitProducesSensibleModelAndPosteriors) {
  Rng rng(1);
  LogicLncl learner(SmallConfig(), factory_, nullptr);
  const LogicLnclResult result =
      learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  EXPECT_GT(result.best_dev_score, 0.6);
  EXPECT_GE(result.best_epoch, 0);
  EXPECT_EQ(learner.qf().size(), static_cast<size_t>(corpus_.train.size()));
  // Inference accuracy above the raw-MV baseline is expected after EM.
  const double inf_acc = eval::PosteriorAccuracy(learner.qf(), corpus_.train);
  const auto mv = annotations_->MajorityVote(
      inference::ItemsPerInstance(corpus_.train));
  EXPECT_GT(inf_acc, eval::PosteriorAccuracy(mv, corpus_.train) - 0.02);
  // Confusions available for all annotators.
  EXPECT_EQ(learner.confusions().size(), 25u);
}

TEST_F(LogicLnclSmallTest, TeacherEqualsStudentWithoutProjector) {
  Rng rng(2);
  LogicLncl learner(SmallConfig(), factory_, nullptr);
  learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  const data::Instance& x = corpus_.test.instances[0];
  const Matrix s = learner.PredictStudent(x);
  const Matrix t = learner.PredictTeacher(x);
  EXPECT_NEAR(s(0, 0), t(0, 0), 1e-6);
}

TEST_F(LogicLnclSmallTest, TeacherDiffersOnlyOnRuledInstances) {
  Rng rng(3);
  LogicLncl learner(SmallConfig(), factory_, nullptr);
  learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  SentimentButRule rule(learner.model(), corpus_.but_token);
  // Rebuild a learner-alike teacher by projecting manually.
  for (const data::Instance& x : corpus_.test.instances) {
    const Matrix s = learner.PredictStudent(x);
    const Matrix t = rule.Project(x, s, 5.0);
    if (x.contrast_index < 0 ||
        x.tokens[x.contrast_index] != corpus_.but_token) {
      EXPECT_NEAR(s(0, 0), t(0, 0), 1e-6);
    }
  }
}

TEST_F(LogicLnclSmallTest, RuleProjectionPullsTowardClauseB) {
  Rng rng(4);
  LogicLncl learner(SmallConfig(), factory_, nullptr);
  learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  SentimentButRule rule(learner.model(), corpus_.but_token);
  int checked = 0;
  for (const data::Instance& x : corpus_.test.instances) {
    if (x.contrast_index < 0 ||
        x.tokens[x.contrast_index] != corpus_.but_token) {
      continue;
    }
    const Matrix pb = learner.model()->Predict(data::ClauseB(x));
    Matrix uniform(1, 2);
    uniform(0, 0) = 0.5f;
    uniform(0, 1) = 0.5f;
    const Matrix projected = rule.Project(x, uniform, 5.0);
    // Starting from a uniform posterior, the projection must move toward
    // the clause-B prediction.
    const int pb_argmax = pb(0, 1) > pb(0, 0) ? 1 : 0;
    EXPECT_GE(projected(0, pb_argmax), 0.5f - 1e-5);
    ++checked;
  }
  EXPECT_GT(checked, 5);
}


TEST_F(LogicLnclSmallTest, SemiSupervisedAnchorsGoldIndices) {
  Rng rng(44);
  LogicLncl learner(SmallConfig(), factory_, nullptr);
  std::vector<int> gold = {0, 5, 17, 42};
  learner.FitSemiSupervised(corpus_.train, *annotations_, gold, corpus_.dev,
                            &rng);
  for (int idx : gold) {
    const Matrix& q = learner.qf()[idx];
    EXPECT_FLOAT_EQ(q(0, corpus_.train.instances[idx].label), 1.0f);
  }
  // Anchoring a chunk of gold labels should not hurt inference accuracy.
  const double inf = eval::PosteriorAccuracy(learner.qf(), corpus_.train);
  EXPECT_GT(inf, 0.7);
}

TEST_F(LogicLnclSmallTest, SemiSupervisedBeatsUnsupervisedInference) {
  // Anchor 30% of the training set: inference accuracy must rise (the
  // anchored instances alone guarantee it).
  Rng rng_a(45), rng_b(45);
  LogicLncl plain(SmallConfig(), factory_, nullptr);
  plain.Fit(corpus_.train, *annotations_, corpus_.dev, &rng_a);
  LogicLncl semi(SmallConfig(), factory_, nullptr);
  std::vector<int> gold;
  for (int i = 0; i < corpus_.train.size(); i += 3) gold.push_back(i);
  semi.FitSemiSupervised(corpus_.train, *annotations_, gold, corpus_.dev,
                         &rng_b);
  EXPECT_GT(eval::PosteriorAccuracy(semi.qf(), corpus_.train),
            eval::PosteriorAccuracy(plain.qf(), corpus_.train));
}

TEST_F(LogicLnclSmallTest, SaveLoadModelRoundTrip) {
  Rng rng(46);
  LogicLncl learner(SmallConfig(), factory_, nullptr);
  learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  std::stringstream checkpoint;
  learner.SaveModel(checkpoint);

  Rng rng2(47);
  LogicLncl restored(SmallConfig(), factory_(&rng2), nullptr);
  ASSERT_TRUE(restored.LoadModel(checkpoint));
  for (int i = 0; i < 5; ++i) {
    const Matrix pa = learner.PredictStudent(corpus_.test.instances[i]);
    const Matrix pb = restored.PredictStudent(corpus_.test.instances[i]);
    EXPECT_FLOAT_EQ(pa(0, 0), pb(0, 0));
  }
}

TEST_F(LogicLnclSmallTest, WeightedLossRuns) {
  Rng rng(5);
  LogicLnclConfig config = SmallConfig();
  config.weighted_loss = true;
  config.epochs = 3;
  LogicLncl learner(config, factory_, nullptr);
  const LogicLnclResult result =
      learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  EXPECT_GT(result.best_dev_score, 0.55);
}

TEST_F(LogicLnclSmallTest, RaykarStyleLogisticRegressionWorks) {
  Rng rng(6);
  LogicLnclConfig config = SmallConfig();
  config.k_schedule = ConstantK(0.0);
  LogicLncl learner(
      config, models::LogisticRegression::Factory(2, corpus_.embeddings),
      nullptr);
  const LogicLnclResult result =
      learner.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  EXPECT_GT(result.best_dev_score, 0.6);
}


TEST_F(LogicLnclSmallTest, DeterministicGivenSeed) {
  Rng rng_a(99), rng_b(99);
  LogicLncl a(SmallConfig(), factory_, nullptr);
  LogicLncl b(SmallConfig(), factory_, nullptr);
  a.Fit(corpus_.train, *annotations_, corpus_.dev, &rng_a);
  b.Fit(corpus_.train, *annotations_, corpus_.dev, &rng_b);
  for (int i = 0; i < 10; ++i) {
    const Matrix pa = a.PredictStudent(corpus_.test.instances[i]);
    const Matrix pb = b.PredictStudent(corpus_.test.instances[i]);
    EXPECT_FLOAT_EQ(pa(0, 0), pb(0, 0)) << "instance " << i;
  }
}

// Eq. 7's two-term loss equals Eq. 8's single blended-target cross entropy
// up to a constant in Theta (the entropy of q_b does not depend on the
// network), so their GRADIENTS coincide. Verify on a toy model.
TEST(BlendEquivalenceTest, BlendedTargetGradEqualsTwoTermGrad) {
  Rng rng(7);
  auto emb = std::make_shared<data::EmbeddingTable>(10, 4);
  for (int v = 1; v < 10; ++v) {
    for (int d = 0; d < 4; ++d) {
      emb->table()(v, d) = static_cast<float>(rng.Gaussian());
    }
  }
  models::LogisticRegression model(2, emb, &rng);
  data::Instance x;
  x.tokens = {1, 3, 5};

  Matrix qa(1, 2), qb(1, 2), qf(1, 2);
  qa(0, 0) = 0.8f;
  qa(0, 1) = 0.2f;
  qb(0, 0) = 0.3f;
  qb(0, 1) = 0.7f;
  const float k = 0.4f;
  for (int c = 0; c < 2; ++c) qf(0, c) = (1 - k) * qa(0, c) + k * qb(0, c);

  // Gradient of CE(qf, p).
  nn::ZeroGrads(model.Params());
  model.ForwardTrain(x, &rng);
  model.BackwardSoftTarget(qf, 1.0f);
  const Matrix grad_blended = model.Params()[0]->grad;

  // Gradient of (1-k) CE(qa, p) + k CE(qb, p).
  nn::ZeroGrads(model.Params());
  model.ForwardTrain(x, &rng);
  model.BackwardSoftTarget(qa, 1.0f - k);
  model.ForwardTrain(x, &rng);
  model.BackwardSoftTarget(qb, k);
  const Matrix grad_two_term = model.Params()[0]->grad;

  for (int r = 0; r < grad_blended.rows(); ++r) {
    for (int c = 0; c < grad_blended.cols(); ++c) {
      EXPECT_NEAR(grad_blended(r, c), grad_two_term(r, c), 1e-5);
    }
  }
}

}  // namespace
}  // namespace lncl::core
