#include "bench_common.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace lncl::bench {

Scale SentimentScale(const util::Config& config) {
  Scale scale;
  const bool full = config.GetBool("full", false);
  scale.train = config.GetInt("train", full ? 4999 : 1500);
  scale.dev = config.GetInt("dev", full ? 3000 : 400);
  scale.test = config.GetInt("test", full ? 2789 : 800);
  scale.annotators = config.GetInt("annotators", full ? 203 : 50);
  scale.epochs = config.GetInt("epochs", full ? 30 : 15);
  scale.runs = config.GetInt("runs", full ? 50 : 5);
  scale.batch = config.GetInt("batch", 50);
  scale.intra_threads = config.GetInt("intra_threads", 1);
  return scale;
}

Scale NerScale(const util::Config& config) {
  Scale scale;
  const bool full = config.GetBool("full", false);
  scale.train = config.GetInt("train", full ? 5985 : 900);
  scale.dev = config.GetInt("dev", full ? 2000 : 250);
  scale.test = config.GetInt("test", full ? 1250 : 350);
  scale.annotators = config.GetInt("annotators", full ? 47 : 30);
  scale.epochs = config.GetInt("epochs", full ? 30 : 15);
  scale.runs = config.GetInt("runs", full ? 30 : 5);
  // The paper's batch of 64 assumes ~6k sentences; at the reduced scale we
  // shrink the batch so the per-epoch optimizer step count stays comparable.
  scale.batch = config.GetInt("batch", full ? 64 : 16);
  // At reduced scale an epoch has ~10x fewer optimizer steps, so give
  // slow-starting methods (crowd layer, per-annotator nets) more patience.
  scale.patience = config.GetInt("patience", full ? 5 : 8);
  scale.intra_threads = config.GetInt("intra_threads", 1);
  return scale;
}

SentimentSetup MakeSentimentSetup(const Scale& scale, uint64_t seed) {
  util::Rng rng(seed);
  SentimentSetup setup;
  data::SentimentGenConfig gcfg;
  setup.corpus = data::GenerateSentimentCorpus(gcfg, scale.train, scale.dev,
                                               scale.test, &rng);
  crowd::CrowdConfig ccfg;
  ccfg.num_annotators = scale.annotators;
  ccfg.avg_per_instance = 5.5;  // the dataset's 5.55 labels/instance
  // Calibrated so MV inference lands near the paper's 88.6% while leaving
  // headroom for the model-based aggregators (DS/GLAD ~91.5).
  ccfg.frac_good = 0.72;
  ccfg.good_lo = 0.86;
  ccfg.good_hi = 0.97;
  ccfg.frac_mediocre = 0.20;
  ccfg.mediocre_lo = 0.62;
  ccfg.mediocre_hi = 0.84;
  ccfg.difficulty_strength = 0.28;
  ccfg.trap_frac = 0.04;
  ccfg.trap_frac_contrast = 0.15;
  setup.simulator = std::make_unique<crowd::CrowdSimulator>(
      crowd::CrowdSimulator::MakeClassification(ccfg, 2, &rng));
  setup.annotations = setup.simulator->Annotate(setup.corpus.train, &rng);
  return setup;
}

NerSetup MakeNerSetup(const Scale& scale, uint64_t seed) {
  util::Rng rng(seed);
  NerSetup setup;
  data::NerGenConfig gcfg;
  setup.corpus = data::GenerateNerCorpus(gcfg, scale.train, scale.dev,
                                         scale.test, &rng);
  crowd::CrowdConfig ccfg;
  ccfg.num_annotators = scale.annotators;
  ccfg.avg_per_instance = 5.0;
  // Calibrated toward the paper's crowd: annotator F1 spanning ~0.18-0.89
  // and MV inference F1 near 67.
  ccfg.frac_good = 0.45;
  ccfg.good_lo = 0.72;
  ccfg.good_hi = 0.92;
  ccfg.frac_mediocre = 0.37;
  ccfg.mediocre_lo = 0.50;
  ccfg.mediocre_hi = 0.72;
  ccfg.spam_lo = 0.15;
  ccfg.spam_hi = 0.45;
  ccfg.ner_ignore = 0.40;
  ccfg.ner_boundary = 0.60;
  ccfg.ner_type = 0.38;
  ccfg.ner_false_positive = 0.30;
  // Correlated per-entity errors shared by the whole crowd: caps the
  // inference ceiling near the paper's band (best aggregators ~79 F1).
  ccfg.seq_trap_ignore = 0.07;
  ccfg.seq_trap_type = 0.05;
  ccfg.seq_trap_boundary = 0.04;
  setup.simulator = std::make_unique<crowd::CrowdSimulator>(
      crowd::CrowdSimulator::MakeSequence(ccfg, &rng));
  setup.annotations =
      setup.simulator->AnnotateSequences(setup.corpus.train, &rng);
  return setup;
}

models::TextCnnConfig SentimentModelConfig() {
  models::TextCnnConfig config;
  config.windows = {3, 4, 5};
  config.feature_maps = 16;  // paper: 100 per window on GPU
  config.dropout = 0.5;
  config.num_classes = 2;
  return config;
}

models::NerTaggerConfig NerModelConfig() {
  models::NerTaggerConfig config;
  config.conv_window = 5;
  config.conv_features = 64;  // paper: 512 on GPU
  config.gru_hidden = 32;     // paper: 50
  config.dropout = 0.5;
  config.num_classes = 9;
  return config;
}

nn::OptimizerConfig SentimentOptimizer() {
  nn::OptimizerConfig opt;
  opt.kind = "adadelta";
  opt.lr = 1.0;
  opt.lr_decay = 0.5;      // "decay by half every 5 epochs"
  opt.lr_decay_every = 5;
  return opt;
}

nn::OptimizerConfig NerOptimizer() {
  nn::OptimizerConfig opt;
  opt.kind = "adam";
  opt.lr = 0.002;  // paper: 0.001 at 4x width; rescaled for the CPU model
  return opt;
}

core::LogicLnclConfig SentimentLnclConfig(const Scale& scale) {
  core::LogicLnclConfig config;
  config.C = 5.0;
  config.k_schedule = core::SentimentKSchedule();
  config.weighted_loss = false;  // Eq. 6 objective on sentiment
  config.epochs = scale.epochs;
  config.batch_size = scale.batch;
  config.patience = 5;
  config.optimizer = SentimentOptimizer();
  config.threads = scale.intra_threads;
  return config;
}

core::LogicLnclConfig NerLnclConfig(const Scale& scale) {
  core::LogicLnclConfig config;
  config.C = 5.0;
  config.k_schedule = core::NerKSchedule();
  config.weighted_loss = true;  // Eq. 5 objective on NER
  config.epochs = scale.epochs;
  config.batch_size = scale.batch;
  config.patience = scale.patience;
  config.optimizer = NerOptimizer();
  config.threads = scale.intra_threads;
  return config;
}

std::string Pct(const std::vector<double>& xs, bool with_std) {
  if (xs.empty()) return "-";
  const double mean = util::Mean(xs) * 100.0;
  if (!with_std || xs.size() < 2) return util::FormatFixed(mean, 2);
  return util::FormatMeanStd(mean, util::StdDev(xs) * 100.0);
}

void PrintConfigBanner(const std::string& bench, const Scale& scale,
                       const util::Config& config) {
  std::cout << "=================================================\n"
            << bench << "\n"
            << "  train/dev/test: " << scale.train << "/" << scale.dev << "/"
            << scale.test << "\n"
            << "  annotators: " << scale.annotators
            << "  epochs: " << scale.epochs << "  runs: " << scale.runs
            << "\n"
            << "  mode: " << (config.GetBool("full", false) ? "FULL (paper scale)"
                                                            : "default (reduced)")
            << "\n"
            << "=================================================\n";
}

void EmitTable(util::Table* table, const std::string& id) {
  table->Print(std::cout);
  std::filesystem::create_directories("results");
  const std::string path = "results/" + id + ".csv";
  if (table->WriteCsv(path)) {
    std::cout << "[csv written to " << path << "]\n";
  }
}

void PrintPhaseSeconds(const std::string& label,
                       const core::PhaseSeconds& phases) {
  std::cout << label << ": total " << util::FormatFixed(phases.total, 2)
            << "s  (m_step " << util::FormatFixed(phases.m_step, 2)
            << "s, confusion " << util::FormatFixed(phases.confusion, 2)
            << "s, e_step " << util::FormatFixed(phases.e_step, 2)
            << "s, dev_eval " << util::FormatFixed(phases.dev_eval, 2)
            << "s)\n";
}

std::string FitDigest(const core::LogicLnclResult& result) {
  // 64-bit FNV-1a over the exact bytes of every double in the outcome.
  // Hashing bytes (not formatted values) makes the digest sensitive to
  // single-ulp differences that fixed-precision printing would hide.
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void* data, size_t n) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_double = [&mix](double x) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    mix(&bits, sizeof(bits));
  };
  mix_double(result.best_dev_score);
  mix(&result.best_epoch, sizeof(result.best_epoch));
  for (double x : result.dev_curve) mix_double(x);
  for (double x : result.loss_curve) mix_double(x);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

namespace {
int ArgmaxRow(const util::Matrix& m, int row) {
  int best = 0;
  for (int j = 1; j < m.cols(); ++j) {
    if (m(row, j) > m(row, best)) best = j;
  }
  return best;
}
}  // namespace

Int8Gate MeasureInt8Gate(
    core::LogicLncl* m, const data::Dataset& eval_set,
    const std::function<double(const std::vector<util::Matrix>&)>& score) {
  Int8Gate gate;
  m->SetQuantizedPredict(false);
  const std::vector<util::Matrix> fp32 = m->PredictStudentBatch(eval_set);
  m->SetQuantizedPredict(true);
  const std::vector<util::Matrix> int8 = m->PredictStudentBatch(eval_set);
  m->SetQuantizedPredict(false);
  gate.fp32_score = score(fp32);
  gate.int8_score = score(int8);
  int agree = 0;
  for (size_t i = 0; i < fp32.size(); ++i) {
    for (int r = 0; r < fp32[i].rows(); ++r) {
      ++gate.rows;
      if (ArgmaxRow(fp32[i], r) == ArgmaxRow(int8[i], r)) ++agree;
    }
  }
  gate.argmax_agreement =
      gate.rows > 0 ? static_cast<double>(agree) / gate.rows : 1.0;
  return gate;
}

void PrintInt8Gate(const Int8Gate& gate) {
  std::cout << "int8 serving gate: argmax agreement "
            << util::FormatFixed(gate.argmax_agreement * 100.0, 2) << "% over "
            << gate.rows << " rows; score fp32 "
            << util::FormatFixed(gate.fp32_score * 100.0, 2) << " vs int8 "
            << util::FormatFixed(gate.int8_score * 100.0, 2) << " (delta "
            << util::FormatFixed(
                   (gate.int8_score - gate.fp32_score) * 100.0, 3)
            << ")\n";
}

std::string FindExperimentsMd() {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::current_path(ec);
  if (ec) return "";
  for (; !dir.empty(); dir = dir.parent_path()) {
    const std::filesystem::path md = dir / "EXPERIMENTS.md";
    if (std::filesystem::is_regular_file(md, ec)) return md.string();
    if (dir == dir.parent_path()) break;
  }
  return "";
}

int ReportShapeChecks(std::vector<ShapeCheck>* checks,
                      const std::string& experiments_md) {
  std::stringstream text;
  if (std::ifstream is{experiments_md}) text << is.rdbuf();
  const std::string named = text.str();
  if (named.empty() && !checks->empty()) {
    std::cout << "[no EXPERIMENTS.md found: no failing shape check is a "
                 "named deviation]\n";
  }
  int status = 0;
  for (ShapeCheck& c : *checks) {
    const bool listed =
        named.find("deviation `" + c.name + "`") != std::string::npos;
    c.deviation = !c.pass && listed;
    if (!c.pass && !listed) status = 1;
    std::cout << "shape check " << c.name << ": "
              << (c.pass ? "pass" : c.deviation ? "FAIL (named deviation)"
                                                : "FAIL (not a named deviation)");
    for (const auto& [label, value] : c.values) {
      std::cout << " " << label << "=" << util::FormatFixed(value, 2);
    }
    if (c.pass && listed) std::cout << " [passes, yet named as a deviation]";
    std::cout << "\n";
  }
  return status;
}

}  // namespace lncl::bench
