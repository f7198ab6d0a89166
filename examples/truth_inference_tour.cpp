// A tour of the truth-inference zoo: run every aggregation method on the
// same simulated crowd and compare their inference quality — classification
// first (MV, DS, GLAD, IBCC, PM, CATD), then sequences (MV, DS, HMM-Crowd,
// BSC-seq).
#include <iostream>
#include <memory>

#include "crowd/simulator.h"
#include "data/ner_gen.h"
#include "data/sentiment_gen.h"
#include "eval/metrics.h"
#include "inference/bsc_seq.h"
#include "inference/catd.h"
#include "inference/dawid_skene.h"
#include "inference/glad.h"
#include "inference/hmm_crowd.h"
#include "inference/ibcc.h"
#include "inference/majority_vote.h"
#include "inference/pm.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace lncl;
  util::Rng rng(21);

  // ---------------------------------------------------- Classification --
  data::SentimentGenConfig sent_config;
  data::SentimentCorpus sent =
      data::GenerateSentimentCorpus(sent_config, 1200, 100, 100, &rng);
  crowd::CrowdConfig crowd_config;
  crowd_config.num_annotators = 40;
  auto sent_sim =
      crowd::CrowdSimulator::MakeClassification(crowd_config, 2, &rng);
  crowd::AnnotationSet sent_ann = sent_sim.Annotate(sent.train, &rng);
  const auto sent_items = inference::ItemsPerInstance(sent.train);

  util::Table table("Truth inference on a simulated crowd");
  table.SetHeader({"Task", "Method", "Accuracy / span-F1"});

  std::vector<inference::TruthInferencePtr> classifiers;
  classifiers.push_back(std::make_unique<inference::MajorityVote>());
  classifiers.push_back(std::make_unique<inference::DawidSkene>());
  classifiers.push_back(std::make_unique<inference::Glad>());
  classifiers.push_back(std::make_unique<inference::Ibcc>());
  classifiers.push_back(std::make_unique<inference::Pm>());
  classifiers.push_back(std::make_unique<inference::Catd>());
  for (const auto& method : classifiers) {
    const auto posteriors = method->Infer(sent_ann, sent_items, &rng);
    table.AddRow({"sentiment", method->name(),
                  util::FormatFixed(
                      eval::PosteriorAccuracy(posteriors, sent.train) * 100.0,
                      2)});
  }
  table.AddSeparator();

  // --------------------------------------------------------- Sequences --
  data::NerGenConfig ner_config;
  data::NerCorpus ner = data::GenerateNerCorpus(ner_config, 400, 50, 50, &rng);
  crowd_config.num_annotators = 25;
  auto ner_sim = crowd::CrowdSimulator::MakeSequence(crowd_config, &rng);
  crowd::AnnotationSet ner_ann = ner_sim.AnnotateSequences(ner.train, &rng);
  const auto ner_items = inference::ItemsPerInstance(ner.train);

  std::vector<inference::TruthInferencePtr> sequencers;
  sequencers.push_back(std::make_unique<inference::MajorityVote>());
  sequencers.push_back(std::make_unique<inference::DawidSkene>());
  sequencers.push_back(std::make_unique<inference::HmmCrowd>());
  sequencers.push_back(std::make_unique<inference::BscSeq>());
  for (const auto& method : sequencers) {
    const auto posteriors = method->Infer(ner_ann, ner_items, &rng);
    table.AddRow({"ner", method->name(),
                  util::FormatFixed(
                      eval::PosteriorSpanF1(posteriors, ner.train).f1 * 100.0,
                      2)});
  }
  table.Print(std::cout);

  // GLAD's extras: per-item difficulty estimates.
  inference::Glad glad;
  const auto detailed = glad.RunDetailed(sent_ann, sent_items);
  double hard = 0.0, easy = 0.0;
  int n_hard = 0, n_easy = 0;
  for (int i = 0; i < sent.train.size(); ++i) {
    if (sent.train.instances[i].difficulty > 0.5) {
      hard += detailed.difficulty[i];
      ++n_hard;
    } else {
      easy += detailed.difficulty[i];
      ++n_easy;
    }
  }
  if (n_hard > 0 && n_easy > 0) {
    std::cout << "GLAD difficulty estimates: planted-hard items "
              << util::FormatFixed(hard / n_hard, 3)
              << " vs planted-easy items "
              << util::FormatFixed(easy / n_easy, 3) << "\n";
  }
  return 0;
}
