#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>

#include "crowd/annotation.h"
#include "crowd/confusion.h"
#include "crowd/io.h"
#include "crowd/ner_noise.h"
#include "crowd/simulator.h"
#include "crowd/weak_supervision.h"
#include "data/bio.h"
#include "data/ner_gen.h"
#include "data/sentiment_gen.h"
#include "eval/metrics.h"
#include "inference/truth_inference.h"
#include "util/rng.h"
#include "util/stats.h"

namespace lncl::crowd {
namespace {

using util::Rng;

// ------------------------------------------------------------ Annotation --

TEST(AnnotationSetTest, CountsAndMajorityVote) {
  AnnotationSet ann(2, 3, 2);
  ann.instance(0).entries.push_back({0, {1}});
  ann.instance(0).entries.push_back({1, {1}});
  ann.instance(0).entries.push_back({2, {0}});
  ann.instance(1).entries.push_back({0, {0}});

  EXPECT_EQ(ann.NumAnnotators(0), 3);
  EXPECT_EQ(ann.NumAnnotators(1), 1);
  EXPECT_EQ(ann.TotalAnnotations(), 4);
  const auto counts = ann.LabelsPerAnnotator();
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[2], 1);

  const auto mv = ann.MajorityVote({1, 1});
  EXPECT_NEAR(mv[0](0, 1), 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(mv[1](0, 0), 1.0, 1e-6);
}

TEST(AnnotationSetTest, MajorityVoteUniformWhenUnlabeled) {
  AnnotationSet ann(1, 2, 4);
  const auto mv = ann.MajorityVote({1});
  for (int k = 0; k < 4; ++k) EXPECT_NEAR(mv[0](0, k), 0.25, 1e-6);
}

TEST(AnnotationSetTest, SequenceMajorityVote) {
  AnnotationSet ann(1, 2, 3);
  ann.instance(0).entries.push_back({0, {0, 1, 2}});
  ann.instance(0).entries.push_back({1, {0, 2, 2}});
  const auto mv = ann.MajorityVote({3});
  EXPECT_NEAR(mv[0](0, 0), 1.0, 1e-6);
  EXPECT_NEAR(mv[0](1, 1), 0.5, 1e-6);
  EXPECT_NEAR(mv[0](2, 2), 1.0, 1e-6);
}

// ------------------------------------------------------------- Confusion --

TEST(ConfusionMatrixTest, DiagonalPriorConstruction) {
  ConfusionMatrix cm(4, 0.7);
  for (int m = 0; m < 4; ++m) {
    double row = 0.0;
    for (int n = 0; n < 4; ++n) row += cm(m, n);
    EXPECT_NEAR(row, 1.0, 1e-6);
    EXPECT_NEAR(cm(m, m), 0.7, 1e-6);
  }
  EXPECT_NEAR(cm.Reliability(), 0.7, 1e-6);
}

TEST(ConfusionMatrixTest, NormalizeRowsHandlesZeros) {
  ConfusionMatrix cm(3, 0.0);
  cm.matrix().Zero();
  cm.NormalizeRows(0.0);
  for (int m = 0; m < 3; ++m) {
    for (int n = 0; n < 3; ++n) EXPECT_NEAR(cm(m, n), 1.0 / 3.0, 1e-6);
  }
}

TEST(ConfusionMatrixTest, DistanceIsMetricLike) {
  ConfusionMatrix a(2, 0.9), b(2, 0.9), c(2, 0.5);
  EXPECT_NEAR(a.Distance(b), 0.0, 1e-6);
  EXPECT_GT(a.Distance(c), 0.0);
  EXPECT_NEAR(a.Distance(c), c.Distance(a), 1e-6);
}

TEST(EmpiricalConfusionsTest, RecoversPlantedLabels) {
  data::Dataset d;
  d.num_classes = 2;
  for (int i = 0; i < 4; ++i) {
    data::Instance x;
    x.tokens = {1};
    x.label = i % 2;
    d.instances.push_back(x);
  }
  AnnotationSet ann(4, 1, 2);
  // Annotator 0 always reports the truth.
  for (int i = 0; i < 4; ++i) {
    ann.instance(i).entries.push_back({0, {i % 2}});
  }
  const ConfusionSet cs = EmpiricalConfusions(ann, d);
  EXPECT_NEAR(cs[0](0, 0), 1.0, 1e-5);
  EXPECT_NEAR(cs[0](1, 1), 1.0, 1e-5);
}

// A crowd that does not fit the dataset is refused before any confusion
// cell is indexed, naming the instance, the annotator and the value.
// Unchecked, an annotator id outside the pool or a label outside [0, K)
// indexed past the confusion set, and an entry whose length is not its
// sentence's was counted against the wrong tags (a longer one read past
// them).
TEST(EmpiricalConfusionsDeathTest, OutOfRangeEntriesAbortNamingTheValue) {
  data::Dataset d;
  d.num_classes = 3;
  d.sequence = true;
  for (int i = 0; i < 2; ++i) {
    data::Instance x;
    x.tokens = {1, 2, 3};
    x.tag_labels = {0, 1, 2};
    d.instances.push_back(x);
  }
  AnnotationSet bad_id(2, 2, 3);
  bad_id.instance(0).entries.push_back({0, {0, 1, 2}});
  bad_id.instance(1).entries.push_back({2, {0, 1, 2}});  // the pool is {0, 1}
  AnnotationSet bad_label(2, 2, 3);
  bad_label.instance(0).entries.push_back({0, {0, 1, 2}});
  bad_label.instance(1).entries.push_back({1, {0, 3, 2}});  // K = 3
  AnnotationSet shorter(2, 2, 3);
  shorter.instance(0).entries.push_back({1, {0, 1}});  // 2 labels for 3
  EXPECT_DEATH(EmpiricalConfusions(bad_id, d),
               "instance 1: annotator 2 is outside the pool of 2 annotators");
  EXPECT_DEATH(EmpiricalConfusions(bad_label, d),
               "instance 1: annotator 1 gave label 3, outside \\[0, 3\\)");
  EXPECT_DEATH(EmpiricalConfusions(shorter, d),
               "instance 0: annotator 1 gave 2 labels for 3 items");
}

// -------------------------------------------------------------- NerNoise --

class NerNoiseTest : public testing::Test {
 protected:
  const std::vector<int> truth_ = {
      data::kO, data::kBPer, data::kIPer, data::kO,
      data::kO, data::kBOrg, data::kO,    data::kO};
};

TEST_F(NerNoiseTest, NoErrorRatesMeansExactCopy) {
  Rng rng(1);
  const NerErrorRates rates;  // all zero
  for (int trial = 0; trial < 10; ++trial) {
    EXPECT_EQ(CorruptNerTags(truth_, rates, 0.5, &rng), truth_);
  }
}

TEST_F(NerNoiseTest, IgnoreErrorRemovesEntities) {
  Rng rng(2);
  NerErrorRates rates;
  rates.p_ignore = 2.0;  // scaled and clamped to 0.95
  int removed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto out = CorruptNerTags(truth_, rates, 0.5, &rng);
    removed += data::ExtractSpans(out).size() < 2;
  }
  EXPECT_GT(removed, 150);
}

TEST_F(NerNoiseTest, TypeErrorKeepsSpanBoundaries) {
  Rng rng(3);
  NerErrorRates rates;
  rates.p_type = 2.0;
  int type_changed = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto out = CorruptNerTags(truth_, rates, 0.5, &rng);
    const auto spans = data::ExtractSpans(out);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].begin, 1);
    EXPECT_EQ(spans[0].end, 3);
    if (spans[0].type != 0) ++type_changed;
  }
  EXPECT_GT(type_changed, 80);
}

TEST_F(NerNoiseTest, BoundaryErrorShiftsByAtMostOne) {
  Rng rng(4);
  NerErrorRates rates;
  rates.p_boundary = 2.0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto out = CorruptNerTags(truth_, rates, 0.5, &rng);
    for (const auto& span : data::ExtractSpans(out)) {
      if (span.type == 0) {  // the PER entity, truth [1, 3)
        EXPECT_GE(span.begin, 0);
        EXPECT_LE(std::abs(span.begin - 1), 1);
        EXPECT_LE(std::abs(span.end - 3), 1);
      }
    }
  }
}

TEST_F(NerNoiseTest, DifficultyScalesErrors) {
  NerErrorRates rates;
  rates.p_ignore = 0.3;
  int removed_easy = 0, removed_hard = 0;
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    if (data::ExtractSpans(CorruptNerTags(truth_, rates, 0.0, &rng)).size() < 2) {
      ++removed_easy;
    }
    if (data::ExtractSpans(CorruptNerTags(truth_, rates, 1.0, &rng)).size() < 2) {
      ++removed_hard;
    }
  }
  EXPECT_GT(removed_hard, removed_easy);
}

TEST_F(NerNoiseTest, OutputLengthPreserved) {
  Rng rng(6);
  NerErrorRates rates;
  rates.p_ignore = 0.3;
  rates.p_boundary = 0.3;
  rates.p_type = 0.3;
  rates.p_false_positive = 0.3;
  for (int trial = 0; trial < 100; ++trial) {
    EXPECT_EQ(CorruptNerTags(truth_, rates, 0.7, &rng).size(), truth_.size());
  }
}

// ------------------------------------------------------------- Simulator --

class ClassificationSimTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 400, 50, 50, &rng);
    config_.num_annotators = 30;
    sim_ = std::make_unique<CrowdSimulator>(
        CrowdSimulator::MakeClassification(config_, 2, &rng));
    annotations_ = sim_->Annotate(corpus_.train, &rng);
  }
  CrowdConfig config_;
  data::SentimentCorpus corpus_;
  std::unique_ptr<CrowdSimulator> sim_;
  AnnotationSet annotations_;
};

TEST_F(ClassificationSimTest, EveryInstanceGetsLabelsInRange) {
  for (int i = 0; i < annotations_.num_instances(); ++i) {
    EXPECT_GE(annotations_.NumAnnotators(i), config_.min_per_instance);
    EXPECT_LE(annotations_.NumAnnotators(i), config_.max_per_instance);
    for (const AnnotatorLabels& e : annotations_.instance(i).entries) {
      EXPECT_GE(e.annotator, 0);
      EXPECT_LT(e.annotator, 30);
      ASSERT_EQ(e.labels.size(), 1u);
      EXPECT_GE(e.labels[0], 0);
      EXPECT_LT(e.labels[0], 2);
    }
  }
}

TEST_F(ClassificationSimTest, NoDuplicateAnnotatorPerInstance) {
  for (int i = 0; i < annotations_.num_instances(); ++i) {
    std::set<int> seen;
    for (const AnnotatorLabels& e : annotations_.instance(i).entries) {
      EXPECT_TRUE(seen.insert(e.annotator).second);
    }
  }
}

TEST_F(ClassificationSimTest, AverageLabelsPerInstanceNearTarget) {
  const double avg = static_cast<double>(annotations_.TotalAnnotations()) /
                     annotations_.num_instances();
  EXPECT_NEAR(avg, config_.avg_per_instance, 0.6);
}

TEST_F(ClassificationSimTest, SkilledAnnotatorsAreMoreAccurate) {
  // Empirical accuracy should correlate with profile skill.
  const ConfusionSet empirical =
      EmpiricalConfusions(annotations_, corpus_.train);
  const auto labels = annotations_.LabelsPerAnnotator();
  double acc_good = 0.0, acc_bad = 0.0;
  int n_good = 0, n_bad = 0;
  for (int j = 0; j < 30; ++j) {
    if (labels[j] < 20) continue;
    if (sim_->profiles()[j].skill > 0.8) {
      acc_good += empirical[j].Reliability();
      ++n_good;
    } else if (sim_->profiles()[j].skill < 0.6) {
      acc_bad += empirical[j].Reliability();
      ++n_bad;
    }
  }
  if (n_good > 0 && n_bad > 0) {
    EXPECT_GT(acc_good / n_good, acc_bad / n_bad);
  }
}

TEST_F(ClassificationSimTest, ParticipationIsLongTailed) {
  const auto labels = annotations_.LabelsPerAnnotator();
  std::vector<double> counts(labels.begin(), labels.end());
  const util::BoxplotSummary s = util::Summarize(counts);
  EXPECT_GT(s.max, 3.0 * s.median);  // a heavy hitter exists
}

class SequenceSimTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(13);
    data::NerGenConfig gcfg;
    corpus_ = data::GenerateNerCorpus(gcfg, 200, 30, 30, &rng);
    config_.num_annotators = 20;
    sim_ = std::make_unique<CrowdSimulator>(
        CrowdSimulator::MakeSequence(config_, &rng));
    annotations_ = sim_->AnnotateSequences(corpus_.train, &rng);
  }
  CrowdConfig config_;
  data::NerCorpus corpus_;
  std::unique_ptr<CrowdSimulator> sim_;
  AnnotationSet annotations_;
};

TEST_F(SequenceSimTest, LabelsPerTokenAndRange) {
  for (int i = 0; i < annotations_.num_instances(); ++i) {
    const size_t len = corpus_.train.instances[i].tokens.size();
    for (const AnnotatorLabels& e : annotations_.instance(i).entries) {
      ASSERT_EQ(e.labels.size(), len);
      for (int y : e.labels) {
        EXPECT_GE(y, 0);
        EXPECT_LT(y, data::kNumBioLabels);
      }
    }
  }
}

TEST_F(SequenceSimTest, AnnotatorF1SpansWideRange) {
  // Per-annotator span F1 against gold should span a wide range, echoing the
  // paper's 17.6%-89.1%.
  std::vector<double> f1s;
  for (int j = 0; j < 20; ++j) {
    std::vector<std::vector<int>> pred;
    data::Dataset gold;
    gold.num_classes = data::kNumBioLabels;
    gold.sequence = true;
    for (int i = 0; i < annotations_.num_instances(); ++i) {
      for (const AnnotatorLabels& e : annotations_.instance(i).entries) {
        if (e.annotator == j) {
          pred.push_back(e.labels);
          gold.instances.push_back(corpus_.train.instances[i]);
        }
      }
    }
    if (gold.size() < 10) continue;
    f1s.push_back(eval::SpanF1(pred, gold).f1);
  }
  ASSERT_GT(f1s.size(), 5u);
  const double lo = *std::min_element(f1s.begin(), f1s.end());
  const double hi = *std::max_element(f1s.begin(), f1s.end());
  EXPECT_LT(lo, 0.55);
  EXPECT_GT(hi, 0.70);
}

TEST_F(SequenceSimTest, MajorityVoteBeatsWorstAnnotator) {
  const auto mv = annotations_.MajorityVote(
      inference::ItemsPerInstance(corpus_.train));
  const double mv_f1 = eval::PosteriorSpanF1(mv, corpus_.train).f1;
  EXPECT_GT(mv_f1, 0.4);
}


// ------------------------------------------------------- WeakSupervision --

class WeakSupervisionTest : public testing::Test {
 protected:
  void SetUp() override {
    Rng rng(91);
    data::SentimentGenConfig gcfg;
    corpus_ = data::GenerateSentimentCorpus(gcfg, 400, 50, 50, &rng);
    functions_ = MakeSentimentLabelingFunctions(corpus_.vocab, 4, 8, 1.0,
                                                &rng);
    annotations_ = ApplyLabelingFunctions(functions_, corpus_.train, 2, &rng);
  }
  data::SentimentCorpus corpus_;
  std::vector<LabelingFunction> functions_;
  AnnotationSet annotations_;
};

TEST_F(WeakSupervisionTest, BuildsOneFunctionPerSlot) {
  ASSERT_EQ(functions_.size(), 8u);
  int pos = 0, neg = 0;
  for (const LabelingFunction& lf : functions_) {
    EXPECT_EQ(lf.triggers.size(), 8u);
    (lf.label == data::kSentimentPositive ? pos : neg) += 1;
  }
  EXPECT_EQ(pos, 4);
  EXPECT_EQ(neg, 4);
}

TEST_F(WeakSupervisionTest, VotesMatchFunctionLabel) {
  for (int i = 0; i < annotations_.num_instances(); ++i) {
    for (const AnnotatorLabels& e : annotations_.instance(i).entries) {
      EXPECT_EQ(e.labels.size(), 1u);
      EXPECT_EQ(e.labels[0], functions_[e.annotator].label);
    }
  }
}

TEST_F(WeakSupervisionTest, FiresOnlyWhenTriggered) {
  // With fire_prob = 1, an LF vote on instance i implies a trigger token is
  // present, and absence of all triggers implies no vote.
  for (int i = 0; i < annotations_.num_instances(); ++i) {
    const auto& tokens = corpus_.train.instances[i].tokens;
    for (size_t j = 0; j < functions_.size(); ++j) {
      const LabelingFunction& lf = functions_[j];
      bool has_trigger = false;
      for (int t : tokens) {
        for (int trig : lf.triggers) has_trigger |= t == trig;
      }
      bool voted = false;
      for (const AnnotatorLabels& e : annotations_.instance(i).entries) {
        voted |= e.annotator == static_cast<int>(j);
      }
      EXPECT_EQ(voted, has_trigger) << "instance " << i << " lf " << j;
    }
  }
}

TEST_F(WeakSupervisionTest, FunctionsAreBetterThanChanceButImperfect) {
  const LfCoverage cov =
      MeasureCoverage(functions_, annotations_, corpus_.train);
  EXPECT_GT(cov.covered, 0.5);
  EXPECT_GT(cov.votes_per_instance, 1.0);
  int informative = 0;
  for (double acc : cov.lf_accuracy) {
    EXPECT_LT(acc, 1.0);  // polarity words leak into wrong-class sentences
    informative += acc > 0.55;
  }
  EXPECT_GE(informative, 6);  // most LFs carry real signal
}

TEST_F(WeakSupervisionTest, FireProbThinsCoverage) {
  Rng rng(92);
  AnnotationSet sparse = ApplyLabelingFunctions(
      [this] {
        auto fns = functions_;
        for (auto& lf : fns) lf.fire_prob = 0.3;
        return fns;
      }(),
      corpus_.train, 2, &rng);
  EXPECT_LT(sparse.TotalAnnotations(), annotations_.TotalAnnotations());
}



// ----------------------------------------------------- Correlated traps --

TEST(TrapTest, FullTrapFractionFlipsTheCrowd) {
  Rng rng(101);
  data::SentimentGenConfig gcfg;
  const data::SentimentCorpus corpus =
      data::GenerateSentimentCorpus(gcfg, 200, 10, 10, &rng);
  CrowdConfig ccfg;
  ccfg.num_annotators = 15;
  ccfg.trap_frac = 1.0;           // every plain instance misleads everyone
  ccfg.trap_frac_contrast = 1.0;  // and every contrastive one too
  ccfg.difficulty_aware = false;
  auto sim = CrowdSimulator::MakeClassification(ccfg, 2, &rng);
  const AnnotationSet ann = sim.Annotate(corpus.train, &rng);
  const auto mv = ann.MajorityVote(
      inference::ItemsPerInstance(corpus.train));
  // The majority vote now tracks the flipped class: far below chance.
  EXPECT_LT(eval::PosteriorAccuracy(mv, corpus.train), 0.35);
}

TEST(TrapTest, SequenceIgnoreTrapHidesEveryEntity) {
  Rng rng(102);
  data::NerGenConfig gcfg;
  const data::NerCorpus corpus = data::GenerateNerCorpus(gcfg, 60, 5, 5, &rng);
  CrowdConfig ccfg;
  ccfg.num_annotators = 8;
  ccfg.seq_trap_ignore = 1.0;  // the whole crowd perceives no entities
  auto sim = CrowdSimulator::MakeSequence(ccfg, &rng);
  const AnnotationSet ann = sim.AnnotateSequences(corpus.train, &rng);
  long entity_labels = 0;
  for (int i = 0; i < ann.num_instances(); ++i) {
    for (const AnnotatorLabels& e : ann.instance(i).entries) {
      for (int y : e.labels) entity_labels += y != data::kO;
    }
  }
  // Only annotator false positives can produce entity labels now.
  const double rate = static_cast<double>(entity_labels) /
                      std::max<long>(1, ann.LabelsPerAnnotator().size());
  EXPECT_LT(entity_labels, ann.TotalAnnotations());  // sparse leftovers only
  (void)rate;
}

TEST(TrapTest, SequenceTypeTrapIsSharedAcrossAnnotators) {
  // With type traps at 1.0 and no individual noise, every annotator reports
  // the same (wrong) type for each entity.
  Rng rng(103);
  data::NerGenConfig gcfg;
  const data::NerCorpus corpus = data::GenerateNerCorpus(gcfg, 40, 5, 5, &rng);
  CrowdConfig ccfg;
  ccfg.num_annotators = 6;
  ccfg.seq_trap_type = 1.0;
  // Perfect annotators otherwise.
  ccfg.frac_good = 1.0;
  ccfg.good_lo = 1.0;
  ccfg.good_hi = 1.0;
  auto sim = CrowdSimulator::MakeSequence(ccfg, &rng);
  // Zero the individual error rates directly for a clean check.
  AnnotationSet ann = [&] {
    CrowdConfig clean = ccfg;
    auto s = CrowdSimulator::MakeSequence(clean, &rng);
    return s.AnnotateSequences(corpus.train, &rng);
  }();
  int disagreements = 0, comparisons = 0;
  for (int i = 0; i < ann.num_instances(); ++i) {
    const auto& entries = ann.instance(i).entries;
    for (size_t a = 1; a < entries.size(); ++a) {
      for (size_t t = 0; t < entries[a].labels.size(); ++t) {
        ++comparisons;
        disagreements += entries[a].labels[t] != entries[0].labels[t];
      }
    }
  }
  ASSERT_GT(comparisons, 0);
  // Perfect annotators (skill 1 -> zero error rates) all copy the same
  // perceived truth, so agreement is total.
  EXPECT_EQ(disagreements, 0);
}

// --------------------------------------------------------------------- IO --

TEST(AnswersMatrixIoTest, ClassificationRoundTrip) {
  AnnotationSet ann(3, 4, 2);
  ann.instance(0).entries.push_back({0, {1}});
  ann.instance(0).entries.push_back({2, {0}});
  ann.instance(1).entries.push_back({3, {1}});
  // instance 2 unlabeled.
  std::stringstream ss;
  SaveAnswersMatrix(ss, ann);
  EXPECT_EQ(ss.str(), "2 0 1 0\n0 0 0 2\n0 0 0 0\n");

  AnnotationSet loaded;
  ASSERT_TRUE(LoadAnswersMatrix(ss, 2, &loaded));
  EXPECT_EQ(loaded.num_instances(), 3);
  EXPECT_EQ(loaded.num_annotators(), 4);
  EXPECT_EQ(loaded.NumAnnotators(0), 2);
  EXPECT_EQ(loaded.NumAnnotators(2), 0);
  EXPECT_EQ(loaded.instance(1).entries[0].annotator, 3);
  EXPECT_EQ(loaded.instance(1).entries[0].labels[0], 1);
}

TEST(AnswersMatrixIoTest, RejectsOutOfRangeAndRagged) {
  AnnotationSet loaded;
  std::stringstream too_big("3 0\n");
  EXPECT_FALSE(LoadAnswersMatrix(too_big, 2, &loaded));
  std::stringstream ragged("1 0\n1 0 2\n");
  EXPECT_FALSE(LoadAnswersMatrix(ragged, 2, &loaded));
  std::stringstream junk("1 x\n");
  EXPECT_FALSE(LoadAnswersMatrix(junk, 2, &loaded));
}

TEST(AnswersMatrixIoTest, SequenceRoundTrip) {
  AnnotationSet ann(2, 3, 9);
  ann.instance(0).entries.push_back({0, {0, 1, 2}});
  ann.instance(0).entries.push_back({2, {0, 0, 0}});
  ann.instance(1).entries.push_back({1, {5, 6}});
  std::stringstream ss;
  SaveSequenceAnswers(ss, ann, {3, 2});

  AnnotationSet loaded;
  ASSERT_TRUE(LoadSequenceAnswers(ss, 9, &loaded));
  EXPECT_EQ(loaded.num_instances(), 2);
  EXPECT_EQ(loaded.NumAnnotators(0), 2);
  EXPECT_EQ(loaded.instance(0).entries[0].labels,
            (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loaded.instance(1).entries[0].annotator, 1);
  EXPECT_EQ(loaded.instance(1).entries[0].labels, (std::vector<int>{5, 6}));
}

TEST(AnswersMatrixIoTest, SequenceRejectsPartialAnnotation) {
  // Annotator column with a mix of labeled and unlabeled tokens is invalid.
  AnnotationSet loaded;
  std::stringstream partial("1 0\n0 0\n\n");
  EXPECT_FALSE(LoadSequenceAnswers(partial, 9, &loaded));
}

TEST(AnswersMatrixIoTest, SimulatedCrowdSurvivesRoundTrip) {
  Rng rng(77);
  data::NerGenConfig gcfg;
  const data::NerCorpus corpus = data::GenerateNerCorpus(gcfg, 30, 1, 1, &rng);
  CrowdConfig ccfg;
  ccfg.num_annotators = 8;
  auto sim = CrowdSimulator::MakeSequence(ccfg, &rng);
  const AnnotationSet ann = sim.AnnotateSequences(corpus.train, &rng);
  std::stringstream ss;
  SaveSequenceAnswers(ss, ann,
                      inference::ItemsPerInstance(corpus.train));
  AnnotationSet loaded;
  ASSERT_TRUE(LoadSequenceAnswers(ss, data::kNumBioLabels, &loaded));
  ASSERT_EQ(loaded.num_instances(), ann.num_instances());
  EXPECT_EQ(loaded.TotalAnnotations(), ann.TotalAnnotations());
  for (int i = 0; i < ann.num_instances(); ++i) {
    ASSERT_EQ(loaded.NumAnnotators(i), ann.NumAnnotators(i));
    for (int e = 0; e < ann.NumAnnotators(i); ++e) {
      EXPECT_EQ(loaded.instance(i).entries[e].annotator,
                ann.instance(i).entries[e].annotator);
      EXPECT_EQ(loaded.instance(i).entries[e].labels,
                ann.instance(i).entries[e].labels);
    }
  }
}

}  // namespace
}  // namespace lncl::crowd
