#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/crowd_layer.h"
#include "baselines/dl_dn.h"
#include "baselines/fixed_target.h"
#include "baselines/two_stage.h"
#include "core/sentiment_rules.h"
#include "crowd/simulator.h"
#include "data/sentiment_gen.h"
#include "eval/metrics.h"
#include "inference/majority_vote.h"
#include "models/text_cnn.h"
#include "util/rng.h"

namespace lncl::baselines {
namespace {

using util::Matrix;
using util::Rng;

class BaselinesTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(55);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 300, 80, 80, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 20;
    auto sim = crowd::CrowdSimulator::MakeClassification(ccfg, 2, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.Annotate(corpus_.train, &rng));

    models::TextCnnConfig mcfg;
    mcfg.feature_maps = 8;
    factory_ = models::TextCnn::Factory(mcfg, corpus_.embeddings);
  }

  nn::OptimizerConfig FastAdam() const {
    nn::OptimizerConfig opt;
    opt.kind = "adadelta";
    opt.lr = 1.0;
    return opt;
  }

  data::SentimentCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
};

// ---------------------------------------------------------------- TwoStage --

TEST_F(BaselinesTest, GoldTargetsAreOneHot) {
  const auto targets = GoldTargets(corpus_.train);
  ASSERT_EQ(targets.size(), static_cast<size_t>(corpus_.train.size()));
  for (int i = 0; i < 20; ++i) {
    float sum = 0.0f;
    for (int c = 0; c < 2; ++c) sum += targets[i](0, c);
    EXPECT_FLOAT_EQ(sum, 1.0f);
    EXPECT_FLOAT_EQ(targets[i](0, corpus_.train.instances[i].label), 1.0f);
  }
}

TEST_F(BaselinesTest, HardenTargetsPicksArgmax) {
  Matrix q(2, 3);
  q(0, 0) = 0.2f; q(0, 1) = 0.5f; q(0, 2) = 0.3f;
  q(1, 0) = 0.9f; q(1, 1) = 0.05f; q(1, 2) = 0.05f;
  const auto hard = HardenTargets({q});
  EXPECT_FLOAT_EQ(hard[0](0, 1), 1.0f);
  EXPECT_FLOAT_EQ(hard[0](1, 0), 1.0f);
  EXPECT_FLOAT_EQ(hard[0](0, 0), 0.0f);
}

TEST_F(BaselinesTest, MvClassifierLearnsSomething) {
  TwoStageConfig config;
  config.epochs = 5;
  config.patience = 5;
  config.optimizer = FastAdam();
  TwoStage two_stage(config, factory_);
  Rng rng(1);
  inference::MajorityVote mv;
  const TwoStageResult result =
      two_stage.Fit(corpus_.train, *annotations_, mv, corpus_.dev, &rng);
  EXPECT_GT(result.best_dev_score, 0.6);
  EXPECT_EQ(result.posteriors.size(),
            static_cast<size_t>(corpus_.train.size()));
  const double test_acc = eval::Accuracy(
      [&](const data::Instance& x) { return two_stage.Predict(x); },
      corpus_.test);
  EXPECT_GT(test_acc, 0.55);
}

TEST_F(BaselinesTest, GoldBeatsNoisyTraining) {
  TwoStageConfig config;
  config.epochs = 6;
  config.patience = 6;
  config.optimizer = FastAdam();
  Rng rng(2);
  TwoStage gold(config, factory_);
  gold.FitOnTargets(corpus_.train, GoldTargets(corpus_.train), corpus_.dev,
                    &rng);
  const double gold_acc = eval::Accuracy(
      [&](const data::Instance& x) { return gold.Predict(x); }, corpus_.test);
  EXPECT_GT(gold_acc, 0.62);
}

TEST_F(BaselinesTest, PredictWithRulesAppliesProjection) {
  TwoStageConfig config;
  config.epochs = 3;
  config.optimizer = FastAdam();
  TwoStage two_stage(config, factory_);
  Rng rng(3);
  inference::MajorityVote mv;
  two_stage.Fit(corpus_.train, *annotations_, mv, corpus_.dev, &rng);
  core::SentimentButRule rule(two_stage.model(), corpus_.but_token);
  // Find a but-instance; projected prediction must shift toward clause B.
  for (const data::Instance& x : corpus_.test.instances) {
    if (x.contrast_index >= 0 &&
        x.tokens[x.contrast_index] == corpus_.but_token) {
      const Matrix plain = two_stage.Predict(x);
      const Matrix ruled = two_stage.PredictWithRules(x, rule, 5.0);
      EXPECT_EQ(ruled.rows(), plain.rows());
      double sum = ruled(0, 0) + ruled(0, 1);
      EXPECT_NEAR(sum, 1.0, 1e-5);
      break;
    }
  }
}

// -------------------------------------------------------------- CrowdLayer --

class CrowdLayerParamTest
    : public testing::TestWithParam<CrowdLayerConfig::Kind> {
 protected:
  void SetUp() override {
    Rng rng(66);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 250, 60, 60, &rng);
    crowd::CrowdConfig ccfg;
    ccfg.num_annotators = 15;
    auto sim = crowd::CrowdSimulator::MakeClassification(ccfg, 2, &rng);
    annotations_ = std::make_unique<crowd::AnnotationSet>(
        sim.Annotate(corpus_.train, &rng));
    models::TextCnnConfig mcfg;
    mcfg.feature_maps = 6;
    factory_ = models::TextCnn::Factory(mcfg, corpus_.embeddings);
  }
  data::SentimentCorpus corpus_;
  std::unique_ptr<crowd::AnnotationSet> annotations_;
  models::ModelFactory factory_;
};

TEST_P(CrowdLayerParamTest, TrainsAboveChance) {
  CrowdLayerConfig config;
  config.kind = GetParam();
  config.epochs = 5;
  config.patience = 5;
  config.batch_size = 32;
  config.optimizer.kind = "adadelta";
  config.optimizer.lr = 1.0;
  CrowdLayer cl(config, factory_);
  Rng rng(1);
  const CrowdLayerResult result =
      cl.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  EXPECT_GT(result.best_dev_score, 0.6);
  const auto posteriors = cl.TrainPosteriors(corpus_.train);
  EXPECT_EQ(posteriors.size(), static_cast<size_t>(corpus_.train.size()));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CrowdLayerParamTest,
                         testing::Values(CrowdLayerConfig::Kind::kMW,
                                         CrowdLayerConfig::Kind::kVW,
                                         CrowdLayerConfig::Kind::kVWB));

TEST_F(BaselinesTest, CrowdLayerPretrainingRuns) {
  CrowdLayerConfig config;
  config.kind = CrowdLayerConfig::Kind::kMW;
  config.pretrain_epochs = 2;
  config.epochs = 3;
  config.optimizer = FastAdam();
  CrowdLayer cl(config, factory_);
  Rng rng(9);
  const CrowdLayerResult result =
      cl.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  EXPECT_GT(result.best_dev_score, 0.6);
}

// ------------------------------------------------------------------ DlDn --

TEST_F(BaselinesTest, DlDnEnsembleWorks) {
  DlDnConfig config;
  config.epochs = 4;
  config.optimizer = FastAdam();
  DlDn dldn(config, factory_);
  Rng rng(4);
  dldn.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  EXPECT_GT(dldn.num_networks(), 3);
  const double dn_acc = eval::Accuracy(
      [&](const data::Instance& x) { return dldn.Predict(x); }, corpus_.test);
  const double wdn_acc = eval::Accuracy(
      [&](const data::Instance& x) { return dldn.PredictWeighted(x); },
      corpus_.test);
  EXPECT_GT(dn_acc, 0.52);
  EXPECT_GT(wdn_acc, 0.52);
}


TEST_F(BaselinesTest, CrowdLayerStartsAsPassThrough) {
  // With identity initialization the crowd layer is a no-op on the
  // bottleneck probabilities, so after zero crowd-layer epochs (pretraining
  // only) the model equals a plain MV-trained network.
  CrowdLayerConfig config;
  config.kind = CrowdLayerConfig::Kind::kMW;
  config.pretrain_epochs = 3;
  config.epochs = 0;
  config.optimizer = FastAdam();
  CrowdLayer cl(config, factory_);
  Rng rng(21);
  cl.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  // The bottleneck still produces valid distributions.
  const Matrix p = cl.model()->Predict(corpus_.test.instances[0]);
  double sum = 0.0;
  for (int c = 0; c < 2; ++c) sum += p(0, c);
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST_F(BaselinesTest, SoftLabelsTwoStageAlsoTrains) {
  // One 4-epoch fit's dev score swings by several points with its seed, so
  // the bound holds on the mean over eight fit seeds (s = 0 is seed 22).
  TwoStageConfig config;
  config.epochs = 4;
  config.patience = 4;
  config.hard_labels = false;  // train on the raw MV posterior
  config.optimizer = FastAdam();
  inference::MajorityVote mv;
  constexpr int kSeeds = 8;
  double sum = 0.0;
  for (int s = 0; s < kSeeds; ++s) {
    TwoStage m(config, factory_);
    Rng rng(22 + 1000 * s);
    sum += m.Fit(corpus_.train, *annotations_, mv, corpus_.dev, &rng)
               .best_dev_score;
  }
  EXPECT_GT(sum / kSeeds, 0.6);
}

TEST_F(BaselinesTest, DlDnSkipsLowVolumeAnnotators) {
  DlDnConfig config;
  config.epochs = 2;
  config.min_instances = 1000000;  // nobody qualifies
  config.optimizer = FastAdam();
  DlDn dldn(config, factory_);
  Rng rng(23);
  dldn.Fit(corpus_.train, *annotations_, corpus_.dev, &rng);
  EXPECT_EQ(dldn.num_networks(), 0);
}

// A crowd built in code with an annotator id outside the pool, a label
// outside [0, K) or an entry shorter than its instance is refused at the
// entry of CrowdLayer::Fit (without MV pre-training, which checked it
// before) and DlDn::Fit, naming the instance, the annotator and the value.
// Unchecked, the crowd layer indexed its per-annotator parameters and their
// gradient rows with them, and DL-DN its sub-datasets and one-hot targets.
using BaselinesDeathTest = BaselinesTest;

TEST_F(BaselinesDeathTest, FitsRefuseOutOfRangeEntries) {
  constexpr int kInstance = 5;
  ASSERT_FALSE(annotations_->instance(kInstance).entries.empty());
  const int annotator = annotations_->instance(kInstance).entries[0].annotator;
  const std::string who = "instance " + std::to_string(kInstance) +
                          ": annotator ";
  crowd::AnnotationSet bad_id = *annotations_;
  bad_id.instance(kInstance).entries[0].annotator = 20;  // the pool is 0-19
  crowd::AnnotationSet bad_label = *annotations_;
  bad_label.instance(kInstance).entries[0].labels = {2};  // K = 2
  crowd::AnnotationSet shorter = *annotations_;
  shorter.instance(kInstance).entries[0].labels.clear();
  CrowdLayerConfig cl_config;
  cl_config.optimizer = FastAdam();
  DlDnConfig dn_config;
  dn_config.optimizer = FastAdam();
  const auto fits = [&](const crowd::AnnotationSet& crowd) {
    Rng rng(1);
    CrowdLayer(cl_config, factory_).Fit(corpus_.train, crowd, corpus_.dev,
                                        &rng);
  };
  const auto dl_dn = [&](const crowd::AnnotationSet& crowd) {
    Rng rng(1);
    DlDn(dn_config, factory_).Fit(corpus_.train, crowd, corpus_.dev, &rng);
  };
  EXPECT_DEATH(fits(bad_id), who + "20 is outside the pool of 20");
  EXPECT_DEATH(dl_dn(bad_id), who + "20 is outside the pool of 20");
  const std::string label = who + std::to_string(annotator) +
                            " gave label 2, outside \\[0, 2\\)";
  EXPECT_DEATH(fits(bad_label), label);
  EXPECT_DEATH(dl_dn(bad_label), label);
  const std::string length =
      who + std::to_string(annotator) + " gave 0 labels for 1 items";
  EXPECT_DEATH(fits(shorter), length);
  EXPECT_DEATH(dl_dn(shorter), length);
  // Labels in range for a K = 3 crowd still index past a K = 2 model.
  crowd::AnnotationSet wider(annotations_->num_instances(),
                             annotations_->num_annotators(), 3);
  for (int i = 0; i < annotations_->num_instances(); ++i) {
    wider.instance(i) = annotations_->instance(i);
  }
  EXPECT_DEATH(fits(wider), "annotations.num_classes\\(\\) == k");
  EXPECT_DEATH(dl_dn(wider), "annotations.num_classes\\(\\) == train");
}

// ------------------------------------------------------------ FixedTarget --

TEST_F(BaselinesTest, FixedTargetMvRuleTrains) {
  FixedTargetConfig config;
  config.epochs = 5;
  config.patience = 5;
  config.k_schedule = core::SentimentKSchedule();
  config.optimizer = FastAdam();

  // Shared model pointer quirk: the rule projector needs the model being
  // trained; construct trainer first, then wire the rule to its model after
  // Fit begins is impossible - instead use a separate frozen helper model
  // for clause-B scoring (mirrors MV-Rule closely enough for a smoke test).
  Rng rng(5);
  auto helper = factory_(&rng);
  core::SentimentButRule rule(helper.get(), corpus_.but_token);

  FixedTargetTrainer trainer(config, factory_, &rule);
  const auto mv = annotations_->MajorityVote(
      inference::ItemsPerInstance(corpus_.train));
  const FixedTargetResult result =
      trainer.Fit(corpus_.train, mv, corpus_.dev, &rng);
  EXPECT_GT(result.best_dev_score, 0.6);
  EXPECT_EQ(result.qf.size(), static_cast<size_t>(corpus_.train.size()));
}

TEST_F(BaselinesTest, FixedTargetWithoutProjectorEqualsPlainTraining) {
  FixedTargetConfig config;
  config.epochs = 3;
  config.optimizer = FastAdam();
  FixedTargetTrainer trainer(config, factory_, nullptr);
  Rng rng(6);
  const auto mv = annotations_->MajorityVote(
      inference::ItemsPerInstance(corpus_.train));
  const FixedTargetResult result =
      trainer.Fit(corpus_.train, mv, corpus_.dev, &rng);
  EXPECT_GT(result.best_dev_score, 0.55);
}

}  // namespace
}  // namespace lncl::baselines
