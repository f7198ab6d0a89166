// Reproduces Table IV: the ablation study on both datasets.
//
//   MV-Rule / GLAD-Rule (AggNet-Rule on NER): rule distillation with a FIXED
//       stage-1 estimate in place of the iteratively refined q_a;
//   w/o-Rule: Logic-LNCL with the logic-knowledge distillation removed
//       (k = 0; equals AggNet);
//   MV-t: the plain MV-Classifier with the teacher trick bolted on at test
//       time;
//   our-other-rules: the framework with deliberately weak/wrong rules —
//       "however" instead of "but" for sentiment; the unrealistic
//       I-X => B-X-only transition rule for NER;
//   Logic-LNCL student/teacher: the full method.
//
// Reported: prediction (test) and inference (train) accuracy / span-F1.
// The table's shape checks (EXPERIMENTS.md) are evaluated on the run means;
// the bench exits non-zero when one fails without being named there as a
// deviation.
#include <algorithm>
#include <array>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/fixed_target.h"
#include "baselines/two_stage.h"
#include "bench_common.h"
#include "bench_history.h"
#include "core/ner_rules.h"
#include "core/sentiment_rules.h"
#include "eval/metrics.h"
#include "inference/glad.h"
#include "inference/majority_vote.h"
#include "util/logging.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace lncl::bench {
namespace {

struct Cell {
  std::vector<double> prediction;
  std::vector<double> inference;
};

class Collector {
 public:
  void Add(const std::string& name, const std::string& dataset,
           double prediction, double inference) {
    std::unique_lock<std::mutex> lock(mu_);
    Cell& c = cells_[name + "|" + dataset];
    c.prediction.push_back(prediction);
    c.inference.push_back(inference);
  }
  Cell Get(const std::string& name, const std::string& dataset) {
    std::unique_lock<std::mutex> lock(mu_);
    return cells_[name + "|" + dataset];
  }

 private:
  std::mutex mu_;
  std::map<std::string, Cell> cells_;
};

// ---------------------------------------------------------------- Sentiment

void RunSentiment(const Scale& scale, util::ThreadPool* pool,
                  Collector* collect) {
  // Setup is shared by reference across jobs; it must outlive them, so it is
  // heap-allocated and leaked deliberately (process-lifetime bench data).
  auto* setup = new SentimentSetup(MakeSentimentSetup(scale, 1));
  const auto items = inference::ItemsPerInstance(setup->corpus.train);
  auto* cnn = new models::ModelFactory(models::TextCnn::Factory(
      SentimentModelConfig(), setup->corpus.embeddings));

  util::Rng post_rng(17);
  auto* mv_posteriors = new std::vector<util::Matrix>(
      inference::MajorityVote().Infer(setup->annotations, items, &post_rng));
  auto* glad_posteriors = new std::vector<util::Matrix>(
      inference::Glad().Infer(setup->annotations, items, &post_rng));
  const double mv_inf =
      eval::PosteriorAccuracy(*mv_posteriors, setup->corpus.train);
  const double glad_inf =
      eval::PosteriorAccuracy(*glad_posteriors, setup->corpus.train);

  for (int r = 0; r < scale.runs; ++r) {
    const uint64_t seed = 6101ULL * (r + 1);

    // MV-Rule / GLAD-Rule: fixed-target distillation.
    struct FixedVariant {
      const char* name;
      const std::vector<util::Matrix>* base;
      double base_inference;
    };
    const FixedVariant fixed[] = {
        {"MV-Rule", mv_posteriors, mv_inf},
        {"GLAD-Rule", glad_posteriors, glad_inf},
    };
    for (const FixedVariant& v : fixed) {
      pool->Submit([=] {
        util::Rng rng(seed ^ 0x9a);
        baselines::FixedTargetConfig fcfg;
        fcfg.epochs = scale.epochs;
        fcfg.batch_size = scale.batch;
        fcfg.patience = scale.patience;
        fcfg.k_schedule = core::SentimentKSchedule();
        fcfg.optimizer = SentimentOptimizer();
        std::unique_ptr<models::Model> model = (*cnn)(&rng);
        core::SentimentButRule rule(model.get(), setup->corpus.but_token);
        baselines::FixedTargetTrainer m(fcfg, std::move(model), &rule);
        const auto result =
            m.Fit(setup->corpus.train, *v.base, setup->corpus.dev, &rng);
        collect->Add(v.name, "sent",
                     eval::Accuracy(
                         [&m](const data::Instance& x) { return m.Predict(x); },
                         setup->corpus.test),
                     eval::PosteriorAccuracy(result.qf, setup->corpus.train));
      });
    }

    // w/o-Rule (AggNet).
    pool->Submit([=] {
      util::Rng rng(seed ^ 0xab);
      core::LogicLnclConfig lcfg = SentimentLnclConfig(scale);
      lcfg.k_schedule = core::ConstantK(0.0);
      core::LogicLncl m(lcfg, *cnn, nullptr);
      m.Fit(setup->corpus.train, setup->annotations, setup->corpus.dev, &rng);
      collect->Add("w/o-Rule", "sent",
                   eval::Accuracy(
                       [&m](const data::Instance& x) {
                         return m.PredictStudent(x);
                       },
                       setup->corpus.test),
                   eval::PosteriorAccuracy(m.qf(), setup->corpus.train));
    });

    // MV-t: plain MV classifier + teacher trick at test time.
    pool->Submit([=] {
      util::Rng rng(seed ^ 0xbc);
      baselines::TwoStageConfig ts;
      ts.epochs = scale.epochs;
      ts.batch_size = scale.batch;
      ts.patience = scale.patience;
      ts.optimizer = SentimentOptimizer();
      baselines::TwoStage m(ts, *cnn);
      m.FitOnTargets(setup->corpus.train,
                     baselines::HardenTargets(*mv_posteriors),
                     setup->corpus.dev, &rng);
      core::SentimentButRule rule(m.model(), setup->corpus.but_token);
      collect->Add("MV-t", "sent",
                   eval::Accuracy(
                       [&](const data::Instance& x) {
                         return m.PredictWithRules(x, rule, 5.0);
                       },
                       setup->corpus.test),
                   mv_inf);
    });

    // our-other-rules: the weak "however" rule.
    pool->Submit([=] {
      util::Rng rng(seed ^ 0xcd);
      std::unique_ptr<models::Model> model = (*cnn)(&rng);
      core::SentimentButRule rule(model.get(), setup->corpus.however_token);
      const core::LogicLnclConfig lcfg = SentimentLnclConfig(scale);
      core::LogicLncl m(lcfg, std::move(model), &rule);
      m.Fit(setup->corpus.train, setup->annotations, setup->corpus.dev, &rng);
      const double inf =
          eval::PosteriorAccuracy(m.qf(), setup->corpus.train);
      collect->Add("our-other-rules-student", "sent",
                   eval::Accuracy(
                       [&m](const data::Instance& x) {
                         return m.PredictStudent(x);
                       },
                       setup->corpus.test),
                   inf);
      collect->Add("our-other-rules-teacher", "sent",
                   eval::Accuracy(
                       [&m](const data::Instance& x) {
                         return m.PredictTeacher(x);
                       },
                       setup->corpus.test),
                   inf);
    });

    // Full Logic-LNCL.
    pool->Submit([=] {
      util::Rng rng(seed ^ 0xde);
      std::unique_ptr<models::Model> model = (*cnn)(&rng);
      core::SentimentButRule rule(model.get(), setup->corpus.but_token);
      const core::LogicLnclConfig lcfg = SentimentLnclConfig(scale);
      core::LogicLncl m(lcfg, std::move(model), &rule);
      m.Fit(setup->corpus.train, setup->annotations, setup->corpus.dev, &rng);
      const double inf =
          eval::PosteriorAccuracy(m.qf(), setup->corpus.train);
      collect->Add("Logic-LNCL-student", "sent",
                   eval::Accuracy(
                       [&m](const data::Instance& x) {
                         return m.PredictStudent(x);
                       },
                       setup->corpus.test),
                   inf);
      collect->Add("Logic-LNCL-teacher", "sent",
                   eval::Accuracy(
                       [&m](const data::Instance& x) {
                         return m.PredictTeacher(x);
                       },
                       setup->corpus.test),
                   inf);
    });
  }
}

// ---------------------------------------------------------------------- NER

void RunNer(const util::Config& config, const Scale& scale,
            util::ThreadPool* pool, Collector* collect) {
  auto* setup = new NerSetup(MakeNerSetup(scale, 2));
  const auto items = inference::ItemsPerInstance(setup->corpus.train);
  auto* tagger = new models::ModelFactory(models::NerTagger::Factory(
      NerModelConfig(), setup->corpus.embeddings));
  auto* good_rule = new std::unique_ptr<logic::SequenceRuleProjector>(
      core::MakeNerRuleProjector());
  auto* bad_rule = new std::unique_ptr<logic::SequenceRuleProjector>(
      core::MakeBadNerRuleProjector());

  util::Rng post_rng(19);
  auto* mv_posteriors = new std::vector<util::Matrix>(
      inference::MajorityVote().Infer(setup->annotations, items, &post_rng));
  const double mv_inf =
      eval::PosteriorSpanF1(*mv_posteriors, setup->corpus.train).f1;

  for (int r = 0; r < scale.runs; ++r) {
    const uint64_t seed = 9203ULL * (r + 1);

    // MV-Rule (fixed MV targets + transition rules).
    pool->Submit([=] {
      util::Rng rng(seed ^ 0x9a);
      baselines::FixedTargetConfig fcfg;
      fcfg.epochs = scale.epochs;
      fcfg.batch_size = scale.batch;
      fcfg.patience = scale.patience;
      fcfg.k_schedule = core::NerKSchedule();
      fcfg.optimizer = NerOptimizer();
      baselines::FixedTargetTrainer m(fcfg, *tagger, good_rule->get());
      const auto result =
          m.Fit(setup->corpus.train, *mv_posteriors, setup->corpus.dev, &rng);
      collect->Add("MV-Rule", "ner",
                   eval::SpanF1(
                       [&m](const data::Instance& x) { return m.Predict(x); },
                       setup->corpus.test)
                       .f1,
                   eval::PosteriorSpanF1(result.qf, setup->corpus.train).f1);
    });

    // AggNet-Rule (the paper's NER replacement for GLAD-Rule) + w/o-Rule:
    // one AggNet fit provides both the w/o-Rule row and the fixed targets.
    pool->Submit([=] {
      util::Rng rng(seed ^ 0xab);
      core::LogicLnclConfig lcfg = NerLnclConfig(scale);
      lcfg.k_schedule = core::ConstantK(0.0);
      core::LogicLncl aggnet(lcfg, *tagger, nullptr);
      aggnet.Fit(setup->corpus.train, setup->annotations, setup->corpus.dev,
                 &rng);
      collect->Add("w/o-Rule", "ner",
                   eval::SpanF1(
                       [&aggnet](const data::Instance& x) {
                         return aggnet.PredictStudent(x);
                       },
                       setup->corpus.test)
                       .f1,
                   eval::PosteriorSpanF1(aggnet.qf(), setup->corpus.train).f1);

      baselines::FixedTargetConfig fcfg;
      fcfg.epochs = scale.epochs;
      fcfg.batch_size = scale.batch;
      fcfg.patience = scale.patience;
      fcfg.k_schedule = core::NerKSchedule();
      fcfg.optimizer = NerOptimizer();
      baselines::FixedTargetTrainer m(fcfg, *tagger, good_rule->get());
      const auto result =
          m.Fit(setup->corpus.train, aggnet.qf(), setup->corpus.dev, &rng);
      collect->Add("GLAD-Rule", "ner",
                   eval::SpanF1(
                       [&m](const data::Instance& x) { return m.Predict(x); },
                       setup->corpus.test)
                       .f1,
                   eval::PosteriorSpanF1(result.qf, setup->corpus.train).f1);
    });

    // MV-t.
    pool->Submit([=] {
      util::Rng rng(seed ^ 0xbc);
      baselines::TwoStageConfig ts;
      ts.epochs = scale.epochs;
      ts.batch_size = scale.batch;
      ts.patience = scale.patience;
      ts.optimizer = NerOptimizer();
      baselines::TwoStage m(ts, *tagger);
      m.FitOnTargets(setup->corpus.train,
                     baselines::HardenTargets(*mv_posteriors),
                     setup->corpus.dev, &rng);
      collect->Add("MV-t", "ner",
                   eval::SpanF1(
                       [&](const data::Instance& x) {
                         return m.PredictWithRules(x, **good_rule, 5.0);
                       },
                       setup->corpus.test)
                       .f1,
                   mv_inf);
    });

    // our-other-rules: the unrealistic transition rule.
    pool->Submit([=] {
      util::Rng rng(seed ^ 0xcd);
      const core::LogicLnclConfig lcfg = NerLnclConfig(scale);
      core::LogicLncl m(lcfg, *tagger, bad_rule->get());
      m.Fit(setup->corpus.train, setup->annotations, setup->corpus.dev, &rng);
      const double inf =
          eval::PosteriorSpanF1(m.qf(), setup->corpus.train).f1;
      collect->Add("our-other-rules-student", "ner",
                   eval::SpanF1(
                       [&m](const data::Instance& x) {
                         return m.PredictStudent(x);
                       },
                       setup->corpus.test)
                       .f1,
                   inf);
      collect->Add("our-other-rules-teacher", "ner",
                   eval::SpanF1(
                       [&m](const data::Instance& x) {
                         return m.PredictTeacher(x);
                       },
                       setup->corpus.test)
                       .f1,
                   inf);
    });

    // Full Logic-LNCL.
    pool->Submit([=] {
      util::Rng rng(seed ^ 0xde);
      const core::LogicLnclConfig lcfg = NerLnclConfig(scale);
      core::LogicLncl m(lcfg, *tagger, good_rule->get());
      m.Fit(setup->corpus.train, setup->annotations, setup->corpus.dev, &rng);
      const double inf =
          eval::PosteriorSpanF1(m.qf(), setup->corpus.train).f1;
      collect->Add("Logic-LNCL-student", "ner",
                   eval::SpanF1(
                       [&m](const data::Instance& x) {
                         return m.PredictStudent(x);
                       },
                       setup->corpus.test)
                       .f1,
                   inf);
      collect->Add("Logic-LNCL-teacher", "ner",
                   eval::SpanF1(
                       [&m](const data::Instance& x) {
                         return m.PredictTeacher(x);
                       },
                       setup->corpus.test)
                       .f1,
                   inf);
    });
  }
  (void)config;
}

// ------------------------------------------------------------ Shape checks

// "Craters": in the paper the bad NER rule takes the teacher from its
// student's 50.71 prediction F1 to 1.23; a drop under 10 F1 is no crater.
constexpr double kCraterF1 = 10.0;

// The table's rows in print order, with the key their shape-check values
// carry. The first kAblations rows are the ablations.
struct RowName {
  const char* name;
  const char* key;
};
constexpr int kMvRule = 0;
constexpr int kMvT = 3;
constexpr int kOtherRulesStudent = 4;
constexpr int kOtherRulesTeacher = 5;
constexpr int kAblations = 6;
constexpr int kTeacher = 7;
constexpr int kRowCount = 8;
constexpr RowName kRows[kRowCount] = {
    {"MV-Rule", "mv_rule"},
    {"GLAD-Rule", "glad_rule"},
    {"w/o-Rule", "wo_rule"},
    {"MV-t", "mv_t"},
    {"our-other-rules-student", "other_rules_student"},
    {"our-other-rules-teacher", "other_rules_teacher"},
    {"Logic-LNCL-student", "student"},
    {"Logic-LNCL-teacher", "teacher"},
};
constexpr const char* kColumns[] = {"sent_pred", "sent_inf", "ner_pred",
                                    "ner_inf"};
constexpr int kNerPred = 2;  // index into kColumns

// One row's column means and their average, in percent.
struct RowMeans {
  std::array<double, 4> column{};
  double average = 0.0;
};

RowMeans Means(Collector* collect, const std::string& name) {
  const Cell sent = collect->Get(name, "sent");
  const Cell ner = collect->Get(name, "ner");
  RowMeans m;
  m.column = {util::Mean(sent.prediction) * 100.0,
              util::Mean(sent.inference) * 100.0,
              util::Mean(ner.prediction) * 100.0,
              util::Mean(ner.inference) * 100.0};
  for (const double c : m.column) m.average += c / 4.0;
  return m;
}

// Table IV's shape claims (EXPERIMENTS.md) on the run means, in percent.
std::vector<ShapeCheck> Table4ShapeChecks(Collector* collect) {
  std::vector<RowMeans> rows;
  for (const RowName& r : kRows) rows.push_back(Means(collect, r.name));
  const RowMeans& teacher = rows[kTeacher];
  const auto avg_key = [](int r) { return std::string(kRows[r].key) + "_avg"; };

  ShapeCheck best_average{"table4.full_teacher_best_average", {}, true};
  for (int r = 0; r < kRowCount; ++r) {
    best_average.values.emplace_back(avg_key(r), rows[r].average);
    if (r != kTeacher && rows[r].average >= teacher.average) {
      best_average.pass = false;
    }
  }

  ShapeCheck tops_columns{"table4.full_teacher_tops_every_column", {}, true};
  for (int c = 0; c < 4; ++c) {
    double best = rows[0].column[c];
    for (int r = 1; r < kAblations; ++r) best = std::max(best, rows[r].column[c]);
    tops_columns.values.emplace_back(std::string("teacher_") + kColumns[c],
                                     teacher.column[c]);
    tops_columns.values.emplace_back(
        std::string("best_ablation_") + kColumns[c], best);
    if (teacher.column[c] < best) tops_columns.pass = false;
  }

  // MV-Rule and MV-t against every other row.
  double others_lowest = 1e300;
  for (int r = 0; r < kRowCount; ++r) {
    if (r != kMvRule && r != kMvT) {
      others_lowest = std::min(others_lowest, rows[r].average);
    }
  }
  const double mv_highest =
      std::max(rows[kMvRule].average, rows[kMvT].average);

  const double bad_student = rows[kOtherRulesStudent].column[kNerPred];
  const double bad_teacher = rows[kOtherRulesTeacher].column[kNerPred];
  return {
      best_average,
      tops_columns,
      {"table4.mv_rows_weakest",
       {{avg_key(kMvRule), rows[kMvRule].average},
        {avg_key(kMvT), rows[kMvT].average},
        {"others_lowest_avg", others_lowest}},
       mv_highest < others_lowest},
      {"table4.bad_rule_craters_ner_teacher",
       {{"other_rules_student_ner_pred", bad_student},
        {"other_rules_teacher_ner_pred", bad_teacher},
        {"margin", kCraterF1}},
       bad_teacher + kCraterF1 <= bad_student},
  };
}

int Run(int argc, char** argv) {
  const util::Config config(argc, argv);
  util::Stopwatch bench_timer;
  Scale sent_scale = SentimentScale(config);
  Scale ner_scale = NerScale(config);
  PrintConfigBanner("Table IV — Ablation study (both datasets)", sent_scale,
                    config);

  Collector collect;
  util::ThreadPool pool(config.GetInt("threads", 0));
  RunSentiment(sent_scale, &pool, &collect);
  RunNer(config, ner_scale, &pool, &collect);
  pool.Wait();

  util::Table table("Table IV: Ablation study (accuracy / span-F1, %)");
  table.SetHeader({"Method", "Sent-Pred", "Sent-Inf", "NER-Pred", "NER-Inf",
                   "Average"});
  auto add_row = [&](const std::string& name) {
    const Cell sent = collect.Get(name, "sent");
    const Cell ner = collect.Get(name, "ner");
    double total = 0.0;
    int parts = 0;
    for (const auto* v : {&sent.prediction, &sent.inference, &ner.prediction,
                          &ner.inference}) {
      if (!v->empty()) {
        total += util::Mean(*v);
        ++parts;
      }
    }
    table.AddRow({name, Pct(sent.prediction, true), Pct(sent.inference),
                  Pct(ner.prediction, true), Pct(ner.inference),
                  parts > 0 ? util::FormatFixed(total / parts * 100.0, 2)
                            : "-"});
  };
  for (int r = 0; r < kRowCount; ++r) {
    if (r == kAblations) table.AddSeparator();
    add_row(kRows[r].name);
  }
  EmitTable(&table, "table4_ablation");
  std::cout << "(NER GLAD-Rule row uses AggNet posteriors: GLAD is "
               "inapplicable to sequence tasks, as in the paper.)\n";

  // Without runs there are no means to check.
  std::vector<ShapeCheck> checks;
  if (sent_scale.runs > 0 && ner_scale.runs > 0) {
    checks = Table4ShapeChecks(&collect);
  }
  const int status = ReportShapeChecks(&checks);
  AppendBenchHistory("table4_ablation", bench_timer.Seconds(), nullptr,
                     nullptr, &checks);
  return status;
}

}  // namespace
}  // namespace lncl::bench

int main(int argc, char** argv) {
  lncl::util::SetLogLevel(lncl::util::LogLevel::kWarning);
  return lncl::bench::Run(argc, argv);
}
