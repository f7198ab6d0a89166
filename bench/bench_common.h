#pragma once

// Shared harness pieces for the table/figure benchmarks: experiment scales,
// corpus + crowd construction, the paper's Table-I configurations, and
// aggregation across runs.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/logic_lncl.h"
#include "crowd/annotation.h"
#include "crowd/simulator.h"
#include "data/ner_gen.h"
#include "data/sentiment_gen.h"
#include "models/ner_tagger.h"
#include "models/text_cnn.h"
#include "util/config.h"
#include "util/stats.h"
#include "util/table.h"

namespace lncl::bench {

// Experiment scale. The default is laptop-sized so the full bench sweep
// finishes in minutes; --full (or LNCL_FULL=1) selects the paper-sized
// configuration.
struct Scale {
  int train = 0;
  int dev = 0;
  int test = 0;
  int annotators = 0;
  int epochs = 0;
  int runs = 0;
  int batch = 0;
  int patience = 5;
  // Intra-model threads per Logic-LNCL fit (LogicLnclConfig.threads). Every
  // setting gives bit-identical results; set --intra_threads above 1 when
  // the benches' per-(method, run) jobs leave cores idle.
  int intra_threads = 1;
};

Scale SentimentScale(const util::Config& config);
Scale NerScale(const util::Config& config);

// A generated task: corpus + simulated crowd + crowd labels on train.
struct SentimentSetup {
  data::SentimentCorpus corpus;
  std::unique_ptr<crowd::CrowdSimulator> simulator;
  crowd::AnnotationSet annotations;
};

struct NerSetup {
  data::NerCorpus corpus;
  std::unique_ptr<crowd::CrowdSimulator> simulator;
  crowd::AnnotationSet annotations;
};

// Deterministic in `seed`.
SentimentSetup MakeSentimentSetup(const Scale& scale, uint64_t seed);
NerSetup MakeNerSetup(const Scale& scale, uint64_t seed);

// Model architectures (reduced-width versions of the paper's networks).
models::TextCnnConfig SentimentModelConfig();
models::NerTaggerConfig NerModelConfig();

// Table-I optimization settings.
// Sentiment: Adadelta, lr 1.0 halved every 5 epochs, batch 50.
// NER: Adam, lr 0.001, batch 64. (Learning rates are rescaled for the
// reduced-width CPU models; see bench_common.cc.)
nn::OptimizerConfig SentimentOptimizer();
nn::OptimizerConfig NerOptimizer();

core::LogicLnclConfig SentimentLnclConfig(const Scale& scale);
core::LogicLnclConfig NerLnclConfig(const Scale& scale);

// Scores of one method across runs (fractions in [0, 1]; printed as %).
struct MethodScores {
  std::string name;
  std::vector<double> prediction;  // accuracy or F1 per run
  std::vector<double> inference;
  // NER extras.
  std::vector<double> precision;
  std::vector<double> recall;
  std::vector<double> inf_precision;
  std::vector<double> inf_recall;
};

// "mean" or "mean ±std" (percent) for a metric vector; "-" when empty.
std::string Pct(const std::vector<double>& xs, bool with_std = false);

// Echoes the experimental configuration (the paper's Table I analogue).
void PrintConfigBanner(const std::string& bench, const Scale& scale,
                       const util::Config& config);

// Writes the table to stdout and a CSV next to the binary (results/<id>.csv
// under the current working directory).
void EmitTable(util::Table* table, const std::string& id);

// One-line wall-clock breakdown of a fit (phase_seconds).
void PrintPhaseSeconds(const std::string& label,
                       const core::PhaseSeconds& phases);

// FNV-1a over the raw bytes of the fit's numeric outcome (best dev score,
// best epoch, and the full per-epoch dev/loss curves), as a 16-hex-digit
// string. Any single-ulp divergence anywhere in the training trajectory
// changes the curves, so equal digests across two binaries witness that
// they computed bit-identical fits. Every bench history record carries the
// digest of its timed fit.
std::string FitDigest(const core::LogicLnclResult& result);

// Int8-vs-fp32 serving gate: scores the same fitted model through
// PredictStudentBatch twice (fp32, then config.quantized_predict = true) and
// records row-level argmax agreement plus a task metric for each arm.
// `score` maps batched posteriors to the bench's headline metric (accuracy
// for sentiment, span-F1 for NER). Leaves the model back in fp32 mode.
struct Int8Gate {
  double argmax_agreement = 0.0;  // fraction of rows with equal argmax
  double fp32_score = 0.0;
  double int8_score = 0.0;
  int rows = 0;                   // rows compared (tokens for sequences)
};

Int8Gate MeasureInt8Gate(
    core::LogicLncl* m, const data::Dataset& eval_set,
    const std::function<double(const std::vector<util::Matrix>&)>& score);

// One-line report of the gate.
void PrintInt8Gate(const Int8Gate& gate);

// A shape claim of the paper (EXPERIMENTS.md) evaluated on a bench's run
// means: `values` are the means it compares, in percent. A failing check is
// a `deviation` when EXPERIMENTS.md names it with the words
// "deviation `<name>`" (followed there by its measured values).
struct ShapeCheck {
  std::string name;
  std::vector<std::pair<std::string, double>> values;
  bool pass = false;
  bool deviation = false;
};

// EXPERIMENTS.md of the current directory or of its nearest ancestor that
// has one; empty when none does.
std::string FindExperimentsMd();

// Marks the failing checks that `experiments_md` names as deviations and
// prints one verdict line per check. Returns the bench's exit status: 0
// unless some check failed without being named (an unreadable file names
// none).
int ReportShapeChecks(std::vector<ShapeCheck>* checks,
                      const std::string& experiments_md = FindExperimentsMd());

}  // namespace lncl::bench

