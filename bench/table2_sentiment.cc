// Reproduces Table II: performance (accuracy, %) on the Sentiment Polarity
// (MTurk) dataset — prediction accuracy on the test split and inference
// accuracy on the training split for every compared method, averaged over
// --runs runs, plus the paper's t-test of Logic-LNCL against AggNet. The
// table's shape checks (EXPERIMENTS.md) are evaluated on those means; the
// bench exits non-zero when one fails without being named there as a
// deviation.
#include <algorithm>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/crowd_layer.h"
#include "baselines/two_stage.h"
#include "bench_common.h"
#include "bench_history.h"
#include "core/sentiment_rules.h"
#include "eval/metrics.h"
#include "inference/catd.h"
#include "inference/dawid_skene.h"
#include "inference/glad.h"
#include "inference/majority_vote.h"
#include "inference/pm.h"
#include "models/logreg.h"
#include "obs/mem_stats.h"
#include "obs/metrics.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace lncl::bench {
namespace {

class Collector {
 public:
  void Add(const std::string& name, double prediction, double inference) {
    std::unique_lock<std::mutex> lock(mu_);
    MethodScores& s = scores_[name];
    s.name = name;
    if (prediction >= 0.0) s.prediction.push_back(prediction);
    if (inference >= 0.0) s.inference.push_back(inference);
  }
  const MethodScores& Get(const std::string& name) {
    std::unique_lock<std::mutex> lock(mu_);
    return scores_[name];
  }

 private:
  std::mutex mu_;
  std::map<std::string, MethodScores> scores_;
};

// "Beat MV": in the paper DS and GLAD inference lead MV by 2.9 and 3.2
// points; a lead under one point is not a win.
constexpr double kBeatMvPoints = 1.0;
// The paper's significance level for its unilateral t-test vs AggNet, in
// percent like every shape-check value.
constexpr double kAlphaPct = 5.0;

// Table II's shape claims (EXPERIMENTS.md) on the run means, in percent.
std::vector<ShapeCheck> Table2ShapeChecks(Collector* collect) {
  const auto pred = [collect](const std::string& name) {
    return util::Mean(collect->Get(name).prediction) * 100.0;
  };
  const auto inf = [collect](const std::string& name) {
    return util::Mean(collect->Get(name).inference) * 100.0;
  };
  const double teacher = pred("Logic-LNCL-teacher");
  const double student = pred("Logic-LNCL-student");
  const double aggnet = pred("AggNet");
  const double glad_classifier = pred("GLAD-Classifier");
  const double mv_classifier = pred("MV-Classifier");
  const double cl_vw = pred("CL (VW)");
  const double cl_vwb = pred("CL (VW-B)");
  const double cl_mw = pred("CL (MW)");
  // Student and teacher share q_f, so they have one inference score.
  const double ours = inf("Logic-LNCL-teacher");
  const double aggnet_inf = inf("AggNet");
  const double mv = inf("MV");
  const double ds = inf("DS");
  const double glad = inf("GLAD");
  const double pm = inf("PM");
  const double catd = inf("CATD");
  const MethodScores& t = collect->Get("Logic-LNCL-teacher");
  const MethodScores& a = collect->Get("AggNet");
  const double pred_p =
      util::WelchTTest(t.prediction, a.prediction).p_one_sided * 100.0;
  const double inf_p =
      util::WelchTTest(t.inference, a.inference).p_one_sided * 100.0;
  return {
      {"table2.teacher_gt_student_gt_aggnet",
       {{"teacher_pred", teacher},
        {"student_pred", student},
        {"aggnet_pred", aggnet}},
       teacher > student && student > aggnet},
      {"table2.aggnet_and_glad_above_cl_and_mv",
       {{"aggnet_pred", aggnet},
        {"glad_classifier_pred", glad_classifier},
        {"cl_vw_pred", cl_vw},
        {"cl_vwb_pred", cl_vwb},
        {"cl_mw_pred", cl_mw},
        {"mv_classifier_pred", mv_classifier}},
       std::min(aggnet, glad_classifier) >
           std::max({cl_vw, cl_vwb, cl_mw, mv_classifier})},
      {"table2.inference_above_aggregators_and_aggnet",
       {{"logic_lncl_inf", ours},
        {"mv_inf", mv},
        {"ds_inf", ds},
        {"glad_inf", glad},
        {"pm_inf", pm},
        {"catd_inf", catd},
        {"aggnet_inf", aggnet_inf}},
       ours > std::max({mv, ds, glad, pm, catd, aggnet_inf})},
      {"table2.teacher_significant_vs_aggnet",
       {{"pred_p_pct", pred_p}, {"inf_p_pct", inf_p}, {"alpha_pct", kAlphaPct}},
       pred_p < kAlphaPct && inf_p < kAlphaPct},
      {"table2.model_aggregators_beat_mv",
       {{"ds_inf", ds},
        {"glad_inf", glad},
        {"mv_inf", mv},
        {"margin", kBeatMvPoints}},
       ds >= mv + kBeatMvPoints && glad >= mv + kBeatMvPoints},
  };
}

int Run(int argc, char** argv) {
  util::Stopwatch bench_timer;
  const util::Config config(argc, argv);
  const Scale scale = SentimentScale(config);
  PrintConfigBanner("Table II — Sentiment Polarity (MTurk, synthetic stand-in)",
                    scale, config);

  const SentimentSetup setup = MakeSentimentSetup(scale, 1);
  const data::Dataset& train = setup.corpus.train;
  const data::Dataset& dev = setup.corpus.dev;
  const data::Dataset& test = setup.corpus.test;
  const crowd::AnnotationSet& ann = setup.annotations;
  const auto items = inference::ItemsPerInstance(train);
  const models::ModelFactory cnn =
      models::TextCnn::Factory(SentimentModelConfig(), setup.corpus.embeddings);

  Collector collect;

  // ---- Truth-inference rows (deterministic; one evaluation each). ----
  const inference::MajorityVote mv;
  const inference::DawidSkene ds;
  const inference::Glad glad;
  const inference::Pm pm;
  const inference::Catd catd;
  std::vector<util::Matrix> mv_posteriors, glad_posteriors;
  {
    util::Rng rng(11);
    mv_posteriors = mv.Infer(ann, items, &rng);
    glad_posteriors = glad.Infer(ann, items, &rng);
    collect.Add("MV", -1.0, eval::PosteriorAccuracy(mv_posteriors, train));
    collect.Add("GLAD", -1.0, eval::PosteriorAccuracy(glad_posteriors, train));
    collect.Add("DS", -1.0,
                eval::PosteriorAccuracy(ds.Infer(ann, items, &rng), train));
    collect.Add("PM", -1.0,
                eval::PosteriorAccuracy(pm.Infer(ann, items, &rng), train));
    collect.Add("CATD", -1.0,
                eval::PosteriorAccuracy(catd.Infer(ann, items, &rng), train));
  }

  // ---- Trainable methods, one job per (method, run). ----
  util::ThreadPool pool(config.GetInt("threads", 0));
  for (int r = 0; r < scale.runs; ++r) {
    const uint64_t seed = 1000003ULL * (r + 1);

    // MV-Classifier.
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x11);
      baselines::TwoStageConfig ts;
      ts.epochs = scale.epochs;
      ts.batch_size = scale.batch;
      ts.optimizer = SentimentOptimizer();
      baselines::TwoStage m(ts, cnn);
      m.FitOnTargets(train, baselines::HardenTargets(mv_posteriors), dev,
                     &rng);
      collect.Add("MV-Classifier",
                  eval::Accuracy(*m.model(), test),
                  eval::PosteriorAccuracy(mv_posteriors, train));
    });

    // GLAD-Classifier.
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x22);
      baselines::TwoStageConfig ts;
      ts.epochs = scale.epochs;
      ts.batch_size = scale.batch;
      ts.optimizer = SentimentOptimizer();
      baselines::TwoStage m(ts, cnn);
      m.FitOnTargets(train, baselines::HardenTargets(glad_posteriors), dev,
                     &rng);
      collect.Add("GLAD-Classifier",
                  eval::Accuracy(*m.model(), test),
                  eval::PosteriorAccuracy(glad_posteriors, train));
    });

    // Raykar: EM with a logistic-regression classifier.
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x33);
      core::LogicLnclConfig lcfg = SentimentLnclConfig(scale);
      lcfg.k_schedule = core::ConstantK(0.0);
      lcfg.optimizer.kind = "adam";
      lcfg.optimizer.lr = 0.05;
      core::LogicLncl m(
          lcfg,
          models::LogisticRegression::Factory(2, setup.corpus.embeddings),
          nullptr);
      m.Fit(train, ann, dev, &rng);
      collect.Add("Raykar",
                  eval::PosteriorAccuracy(m.PredictStudentBatch(test), test),
                  eval::PosteriorAccuracy(m.qf(), train));
    });

    // AggNet: EM with the deep classifier (k = 0, no rules).
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x44);
      core::LogicLnclConfig lcfg = SentimentLnclConfig(scale);
      lcfg.k_schedule = core::ConstantK(0.0);
      core::LogicLncl m(lcfg, cnn, nullptr);
      m.Fit(train, ann, dev, &rng);
      collect.Add("AggNet",
                  eval::PosteriorAccuracy(m.PredictStudentBatch(test), test),
                  eval::PosteriorAccuracy(m.qf(), train));
    });

    // Crowd layers.
    const std::vector<std::pair<std::string, baselines::CrowdLayerConfig::Kind>>
        kinds = {{"CL (VW)", baselines::CrowdLayerConfig::Kind::kVW},
                 {"CL (VW-B)", baselines::CrowdLayerConfig::Kind::kVWB},
                 {"CL (MW)", baselines::CrowdLayerConfig::Kind::kMW}};
    for (const auto& [name, kind] : kinds) {
      pool.Submit([&, seed, name = name, kind = kind] {
        util::Rng rng(seed ^ (0x55 + static_cast<int>(kind)));
        baselines::CrowdLayerConfig clcfg;
        clcfg.kind = kind;
        clcfg.epochs = scale.epochs;
        clcfg.batch_size = scale.batch;
        clcfg.optimizer = SentimentOptimizer();
        baselines::CrowdLayer m(clcfg, cnn);
        m.Fit(train, ann, dev, &rng);
        collect.Add(name,
                    eval::Accuracy(*m.model(), test),
                    eval::PosteriorAccuracy(m.TrainPosteriors(train), train));
      });
    }

    // Logic-LNCL (one fit yields both the student and the teacher row).
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x66);
      std::unique_ptr<models::Model> model = cnn(&rng);
      core::SentimentButRule rule(model.get(), setup.corpus.but_token);
      const core::LogicLnclConfig lcfg = SentimentLnclConfig(scale);
      // `cnn` doubles as the replica factory: it adds training workers when
      // --intra_threads > 1.
      core::LogicLncl m(lcfg, std::move(model), &rule, cnn);
      m.Fit(train, ann, dev, &rng);
      const double inference = eval::PosteriorAccuracy(m.qf(), train);
      collect.Add("Logic-LNCL-student",
                  eval::PosteriorAccuracy(m.PredictStudentBatch(test), test),
                  inference);
      collect.Add("Logic-LNCL-teacher",
                  eval::PosteriorAccuracy(m.PredictTeacherBatch(test), test),
                  inference);
    });

    // Gold upper bound.
    pool.Submit([&, seed] {
      util::Rng rng(seed ^ 0x77);
      baselines::TwoStageConfig ts;
      ts.epochs = scale.epochs;
      ts.batch_size = scale.batch;
      ts.optimizer = SentimentOptimizer();
      baselines::TwoStage m(ts, cnn);
      m.FitOnTargets(train, baselines::GoldTargets(train), dev, &rng);
      collect.Add("Gold",
                  eval::Accuracy(*m.model(), test), 1.0);
    });
  }
  pool.Wait();

  // ---- Assemble the table in the paper's row order. ----
  util::Table table("Table II: Sentiment Polarity (accuracy, %)");
  table.SetHeader({"Paradigm", "Method", "Prediction", "Inference", "Average"});
  auto add_row = [&](const std::string& paradigm, const std::string& name) {
    const MethodScores& s = collect.Get(name);
    std::string avg = "-";
    if (!s.prediction.empty() && !s.inference.empty()) {
      avg = util::FormatFixed(
          (util::Mean(s.prediction) + util::Mean(s.inference)) * 50.0, 2);
    }
    table.AddRow({paradigm, name, Pct(s.prediction, true), Pct(s.inference),
                  avg});
  };
  add_row("Two-stage LNCL", "MV-Classifier");
  add_row("Two-stage LNCL", "GLAD-Classifier");
  table.AddSeparator();
  add_row("One-stage LNCL", "Raykar");
  add_row("One-stage LNCL", "AggNet");
  add_row("One-stage LNCL", "CL (VW)");
  add_row("One-stage LNCL", "CL (VW-B)");
  add_row("One-stage LNCL", "CL (MW)");
  add_row("One-stage LNCL", "Logic-LNCL-student");
  add_row("One-stage LNCL", "Logic-LNCL-teacher");
  table.AddSeparator();
  add_row("Truth Inference", "MV");
  add_row("Truth Inference", "DS");
  add_row("Truth Inference", "GLAD");
  add_row("Truth Inference", "PM");
  add_row("Truth Inference", "CATD");
  table.AddSeparator();
  add_row("-", "Gold");
  EmitTable(&table, "table2_sentiment");

  // ---- Significance vs AggNet (the paper's unilateral t-test). ----
  const MethodScores& aggnet = collect.Get("AggNet");
  for (const std::string& ours :
       {std::string("Logic-LNCL-student"), std::string("Logic-LNCL-teacher")}) {
    const MethodScores& s = collect.Get(ours);
    const util::TTestResult pred =
        util::WelchTTest(s.prediction, aggnet.prediction);
    const util::TTestResult inf =
        util::WelchTTest(s.inference, aggnet.inference);
    std::cout << ours << " vs AggNet: prediction t=" << util::FormatFixed(
                     pred.t, 2)
              << " p=" << util::FormatFixed(pred.p_one_sided, 4)
              << " | inference t=" << util::FormatFixed(inf.t, 2)
              << " p=" << util::FormatFixed(inf.p_one_sided, 4) << "\n";
  }

  // Without runs there are no means to check.
  std::vector<ShapeCheck> checks;
  if (scale.runs > 0) checks = Table2ShapeChecks(&collect);
  const int status = ReportShapeChecks(&checks);

  // ---- Timed end-to-end fit, the telemetry showcase: metrics registry
  // enabled, a Perfetto-loadable trace, a per-epoch run log, and per-span
  // CPU time and page faults (obs::Prof, results/prof_table2.json).
  // All of it only observes, so the fit is bit-identical to a plain one.
  obs::Metrics::Enable(true);
  obs::Metrics::Reset();
  obs::Trace::Start("results/trace_table2.json");
  obs::Prof::Start();
  obs::JsonlRunLogger run_log("results/runlog_table2.jsonl", "table2");
  std::cout << "--- timed Logic-LNCL fit ---\n";
  util::Rng rng(424242);
  std::unique_ptr<models::Model> model = cnn(&rng);
  core::SentimentButRule rule(model.get(), setup.corpus.but_token);
  core::LogicLnclConfig lcfg = SentimentLnclConfig(scale);
  lcfg.run_observer = &run_log;
  core::LogicLncl m(lcfg, std::move(model), &rule, cnn);
  const core::LogicLnclResult res = m.Fit(train, ann, dev, &rng);
  PrintPhaseSeconds("Logic-LNCL fit", res.phase_seconds);
  // Quantized-serving accuracy gate on the fitted model (see
  // LogicLnclConfig.quantized_predict): both arms score the test split.
  const Int8Gate int8_gate =
      MeasureInt8Gate(&m, test, [&](const std::vector<util::Matrix>& p) {
        return eval::PosteriorAccuracy(p, test);
      });
  PrintInt8Gate(int8_gate);
  obs::Prof::Stop();
  obs::Prof::WriteJson("results/prof_table2.json");
  obs::SampleMemStatsToMetrics();
  obs::Trace::Stop();
  obs::Metrics::WriteSnapshotJson("results/metrics_table2.json");
  std::cout << "[telemetry: results/trace_table2.json "
               "results/runlog_table2.jsonl results/metrics_table2.json "
               "results/prof_table2.json]\n";
  AppendBenchHistory("table2", bench_timer.Seconds(), &res, &int8_gate,
                     &checks);
  return status;
}

}  // namespace
}  // namespace lncl::bench

int main(int argc, char** argv) {
  lncl::util::SetLogLevel(lncl::util::LogLevel::kWarning);
  return lncl::bench::Run(argc, argv);
}
