#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/logic_lncl.h"
#include "core/ner_rules.h"
#include "core/sentiment_rules.h"
#include "core/trainer.h"
#include "crowd/simulator.h"
#include "data/ner_gen.h"
#include "data/sentiment_gen.h"
#include "eval/metrics.h"
#include "harness.h"
#include "inference/bsc_seq.h"
#include "inference/dawid_skene.h"
#include "inference/hmm_crowd.h"
#include "inference/ibcc.h"
#include "inference/majority_vote.h"
#include "models/ner_tagger.h"
#include "models/text_cnn.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace lncl::benchmark {
namespace {

// ---- Pinned inputs. -------------------------------------------------------

// Intra-model threads of every fit: the sharded path, bit-identical at any
// thread count. One thread: on a shared host each vCPU has slow phases of
// its own, and a two-thread fit waits at every minibatch for the slower one.
constexpr int kThreads = 1;

// Fits run a fixed number of epochs (patience == epochs, so early stopping
// never fires): the work per fit is then the same for every seed, and a
// change of trajectory cannot masquerade as a change of speed.
constexpr int kSentimentEpochs = 8;
constexpr int kNerEpochs = 8;
constexpr int kServeFitEpochs = 5;

// Serving: the stream is cut into requests of at most this many sentences.
constexpr int kServeStream = 20000;
constexpr int kRequestSentences = 64;

// Score floors: 10 points under the lowest value over seeds 1-40, rounded
// down. Not under the seed-1 value: NER scores swing by +-0.15 with the
// seed, so a seed-1 floor would fail healthy seeds.
constexpr double kSentimentStudentFloor = 0.71;
constexpr double kSentimentTeacherFloor = 0.73;
constexpr double kSentimentInferenceFloor = 0.81;
constexpr double kNerStudentFloor = 0.36;
constexpr double kNerTeacherFloor = 0.36;
constexpr double kNerInferenceFloor = 0.70;
constexpr double kServeTeacherFloor = 0.29;
constexpr double kAggregateMeanF1Floor = 0.61;

// Every field of every config below is named, so a changed default under
// src/ cannot change a workload.

// The paper-scale sentiment corpus: lengths 6-20, 18% "A-but-B" sentences.
data::SentimentGenConfig SentimentGen() {
  return {.embedding_dim = 32,
          .num_neutral_words = 220,
          .num_sentiment_words = 70,
          .weak_word_frac = 0.4,
          .weak_strength = 0.25,
          .signal = 0.70,
          .noise = 1.0,
          .min_len = 6,
          .max_len = 20,
          .contrast_clause_min = 3,
          .contrast_clause_max = 8,
          .p_sentiment_word = 0.48,
          .p_opposite_word = 0.10,
          .but_frac = 0.18,
          .however_frac = 0.06,
          .but_follow_b = 0.82,
          .however_follow_b = 0.60,
          .difficulty_base = 0.18,
          .difficulty_contrast = 0.30,
          .difficulty_noise = 0.12};
}

// The NER corpus: lengths 8-18, one to three entities per sentence.
data::NerGenConfig NerGen() {
  return {.embedding_dim = 32,
          .begin_words_per_type = 30,
          .inside_words_per_type = 20,
          .cue_words_per_type = 12,
          .num_o_words = 250,
          .ambiguous_frac = 0.45,
          .ambiguous_mix = 0.85,
          .confusable_frac = 0.22,
          .confusable_scale = 0.65,
          .type_signal = 0.60,
          .position_signal = 0.35,
          .cue_signal = 0.45,
          .noise = 1.0,
          .min_len = 8,
          .max_len = 18,
          .p_one_entity = 0.40,
          .p_two_entities = 0.40,
          .p_entity_len1 = 0.40,
          .p_entity_len2 = 0.40,
          .p_cue_before = 0.55,
          .difficulty_base = 0.25,
          .difficulty_per_ambiguous = 0.18,
          .difficulty_noise = 0.10};
}

// The paper-scale sentiment crowd (5.55 labels per instance), calibrated so
// MV inference lands near the paper's 88.6%.
crowd::CrowdConfig SentimentCrowd(int annotators) {
  return {.num_annotators = annotators,
          .avg_per_instance = 5.5,
          .min_per_instance = 3,
          .max_per_instance = 8,
          .frac_good = 0.72,
          .frac_mediocre = 0.20,
          .good_lo = 0.86,
          .good_hi = 0.97,
          .mediocre_lo = 0.62,
          .mediocre_hi = 0.84,
          .spam_lo = 0.30,
          .spam_hi = 0.55,
          .class_bias = 0.08,
          .participation_sigma = 1.1,
          .difficulty_aware = true,
          .difficulty_strength = 0.28,
          .trap_frac = 0.04,
          .trap_frac_contrast = 0.15,
          .seq_trap_ignore = 0.0,
          .seq_trap_type = 0.0,
          .seq_trap_boundary = 0.0,
          .ner_ignore = 0.55,
          .ner_boundary = 0.50,
          .ner_type = 0.45,
          .ner_false_positive = 0.25};
}

// The NER crowd: annotator F1 spanning ~0.18-0.89, MV inference F1 near 67.
crowd::CrowdConfig NerCrowd(int annotators) {
  return {.num_annotators = annotators,
          .avg_per_instance = 5.0,
          .min_per_instance = 3,
          .max_per_instance = 8,
          .frac_good = 0.45,
          .frac_mediocre = 0.37,
          .good_lo = 0.72,
          .good_hi = 0.92,
          .mediocre_lo = 0.50,
          .mediocre_hi = 0.72,
          .spam_lo = 0.15,
          .spam_hi = 0.45,
          .class_bias = 0.08,
          .participation_sigma = 1.1,
          .difficulty_aware = true,
          .difficulty_strength = 0.6,
          .trap_frac = 0.0,
          .trap_frac_contrast = 0.0,
          .seq_trap_ignore = 0.07,
          .seq_trap_type = 0.05,
          .seq_trap_boundary = 0.04,
          .ner_ignore = 0.40,
          .ner_boundary = 0.60,
          .ner_type = 0.38,
          .ner_false_positive = 0.30};
}

models::TextCnnConfig SentimentModel() {
  return {.windows = {3, 4, 5},
          .feature_maps = 16,
          .dropout = 0.5,
          .num_classes = 2,
          .trainable_embeddings = false};
}

models::NerTaggerConfig NerModel() {
  return {.conv_window = 5,
          .conv_features = 64,
          .gru_hidden = 32,
          .recurrent = models::NerTaggerConfig::Recurrent::kGru,
          .dropout = 0.5,
          .num_classes = 9};
}

// k(t) = min{cap, 1 - base^(t+1)} for the 0-based epoch t: the paper's
// imitation schedules, written out here rather than taken from core/.
core::KSchedule KSchedule(double cap, double base) {
  return [cap, base](int epoch) {
    return std::min(cap, 1.0 - std::pow(base, static_cast<double>(epoch + 1)));
  };
}

// Everything but the optimizer and the k schedule, which differ per task.
// Rules on, the batched prediction path, fp32 serving, no observer.
core::LogicLnclConfig LnclConfig(int epochs, int batch_size,
                                 bool weighted_loss, core::KSchedule k,
                                 nn::OptimizerConfig optimizer) {
  return {.C = 5.0,
          .k_schedule = std::move(k),
          .weighted_loss = weighted_loss,
          .use_rules_in_training = true,
          .epochs = epochs,
          .batch_size = batch_size,
          .patience = epochs,
          .confusion_smoothing = 0.01,
          .optimizer = std::move(optimizer),
          .threads = kThreads,
          .batch_predict = true,
          .quantized_predict = false,
          .run_observer = nullptr};
}

// Adadelta, lr 1.0 halved every 5 epochs, batch 50 (the paper's Table I).
core::LogicLnclConfig SentimentLncl() {
  return LnclConfig(kSentimentEpochs, 50, false, KSchedule(1.0, 0.94),
                    {.kind = "adadelta",
                     .lr = 1.0,
                     .momentum = 0.0,
                     .l2 = 0.0,
                     .lr_decay = 0.5,
                     .lr_decay_every = 5,
                     .clip_norm = 0.0});
}

// Adam, lr 0.002 for the reduced-width tagger, batch 16 at the reduced scale.
core::LogicLnclConfig NerLncl(int epochs) {
  return LnclConfig(epochs, 16, true, KSchedule(0.8, 0.90),
                    {.kind = "adam",
                     .lr = 0.002,
                     .momentum = 0.0,
                     .l2 = 0.0,
                     .lr_decay = 1.0,
                     .lr_decay_every = 0,
                     .clip_norm = 0.0});
}

uint64_t FitSeed(uint64_t seed) { return seed * 0x9e3779b97f4a7c15ULL ^ 0x66; }

// FitDigest of bench/bench_common.cc: FNV-1a over the best dev score, best
// epoch, and both per-epoch curves, so digests printed here and in the
// paper benches' history are comparable.
std::string FitDigest(const core::LogicLnclResult& r) {
  uint64_t h = HashBytes(&r.best_dev_score, sizeof(r.best_dev_score));
  h = HashBytes(&r.best_epoch, sizeof(r.best_epoch), h);
  h = HashBytes(r.dev_curve.data(), r.dev_curve.size() * sizeof(double), h);
  h = HashBytes(r.loss_curve.data(), r.loss_curve.size() * sizeof(double), h);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<const data::Instance*> Pointers(const data::Dataset& d) {
  std::vector<const data::Instance*> xs;
  xs.reserve(d.instances.size());
  for (const data::Instance& x : d.instances) xs.push_back(&x);
  return xs;
}

int64_t Rows(const std::vector<util::Matrix>& ms) {
  int64_t rows = 0;
  for (const util::Matrix& m : ms) rows += m.rows();
  return rows;
}

// Counter totals while obs::Metrics is enabled, else nothing.
std::map<std::string, double> CounterSnapshot() {
  std::map<std::string, double> totals;
  if (!obs::Metrics::enabled()) return totals;
  for (const auto& [name, total] : obs::Metrics::CounterTotals()) {
    totals[name] = static_cast<double>(total);
  }
  return totals;
}

// after - before, per counter.
std::map<std::string, double> CounterDelta(
    const std::map<std::string, double>& before) {
  std::map<std::string, double> delta = CounterSnapshot();
  for (auto& [name, value] : delta) {
    const auto it = before.find(name);
    if (it != before.end()) value -= it->second;
  }
  return delta;
}

// Adds the seconds of its lifetime to values[name]: the benchmark's own span
// around one call into a layer.
class Span {
 public:
  Span(LayerValues* values, const char* name) : values_(values), name_(name) {}
  ~Span() { (*values_)[name_] += watch_.Seconds(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerValues* values_;
  const char* name_;
  util::Stopwatch watch_;
};

// Forwards Step to `inner` and adds the seconds it took to *seconds, so the
// optimizer's share of a core::RunMinibatchEpochSharded epoch can be told
// apart from the forward/backward passes and the slot reductions around it.
class TimedOptimizer : public nn::Optimizer {
 public:
  TimedOptimizer(nn::Optimizer* inner, double* seconds)
      : nn::Optimizer(inner->lr(), 0.0), inner_(inner), seconds_(seconds) {}

  void Step(const std::vector<nn::Parameter*>& params) override {
    util::Stopwatch watch;
    inner_->Step(params);
    *seconds_ += watch.Seconds();
  }
  std::string name() const override { return inner_->name(); }

 private:
  nn::Optimizer* inner_;
  double* seconds_;
};

// ---- sentiment_fit / ner_fit. --------------------------------------------

// One fit's objects. LogicLncl keeps a non-owning pointer to the rule, so the
// rule is declared first and destroyed last.
struct Learner {
  std::unique_ptr<logic::RuleProjector> rule;
  std::unique_ptr<core::LogicLncl> lncl;
};

struct FitTask {
  data::Dataset train;
  data::Dataset dev;
  data::Dataset test;
  crowd::AnnotationSet annotations;
  models::ModelFactory factory;
  core::LogicLnclConfig config;
  int but_token = -1;  // sentiment: the rule's marker; -1 for NER
  double student_floor = 0.0;
  double teacher_floor = 0.0;
  double inference_floor = 0.0;
};

class FitWorkload : public Workload {
 public:
  FitWorkload(FitTask task, uint64_t seed)
      : task_(std::move(task)), fit_seed_(FitSeed(seed)) {}

  const char* op_name() const override { return "fit"; }

  UnitReport RunUnit() override {
    UnitReport r;
    const std::map<std::string, double> before = CounterSnapshot();
    util::Rng rng(fit_seed_);
    util::Stopwatch watch;
    Learner learner = MakeLearner(&rng);
    const core::LogicLnclResult res = learner.lncl->Fit(
        task_.train, task_.annotations, task_.dev, &rng);
    r.op_seconds.push_back(watch.Seconds());
    r.counters = CounterDelta(before);
    r.op_items.push_back(static_cast<double>(task_.train.TotalItems()) *
                         res.epochs_run);
    r.phases = res.phase_seconds;
    r.epochs_run = res.epochs_run;
    r.fit_digest = FitDigest(res);

    const core::LogicLncl& m = *learner.lncl;
    const std::vector<util::Matrix> student = m.PredictStudentBatch(task_.test);
    const std::vector<util::Matrix> teacher = m.PredictTeacherBatch(task_.test);
    const double student_score = Score(student, task_.test);
    const double teacher_score = Score(teacher, task_.test);
    const double inference_score = Score(m.qf(), task_.train);
    r.details = {{"student_score", student_score},
                 {"teacher_score", teacher_score},
                 {"inference_score", inference_score}};

    uint64_t h = HashBytes(r.fit_digest.data(), r.fit_digest.size());
    h = HashMatrices(m.qf(), h);
    h = HashMatrices(student, h);
    h = HashMatrices(teacher, h);
    if (!reference_) reference_ = h;
    const bool ok = h == *reference_ && AllRowStochastic(m.qf()) &&
                    AllRowStochastic(student) && AllRowStochastic(teacher) &&
                    student_score >= task_.student_floor &&
                    teacher_score >= task_.teacher_floor &&
                    inference_score >= task_.inference_floor;
    r.failed_ops = ok ? 0 : 1;
    last_ = std::move(learner);
    return r;
  }

  void LayerPass(LayerValues* values) override {
    core::LogicLncl& m = *last_.lncl;
    const data::Dataset& train = task_.train;
    const std::vector<const data::Instance*> xs = Pointers(train);

    // Pseudo-E-step pieces: Eq. 13 over the network's prediction, Eq. 15.
    std::vector<util::Matrix> probs;
    {
      Span span(values, "models.predict_batch_s");
      m.model()->PredictBatch(xs, &probs);
    }
    std::vector<util::Matrix> qa(probs.size());
    {
      Span span(values, "core.compute_qa_s");
      const std::vector<util::Matrix> log_pi =
          core::LogConfusions(m.confusions());
      for (int i = 0; i < train.size(); ++i) {
        qa[i] = core::ComputeQa(probs[i], task_.annotations.instance(i),
                                log_pi);
      }
    }
    {
      Span span(values, "logic.project_batch_s");
      last_.rule->ProjectBatch(xs, &qa, task_.config.C);
    }
    (*values)["logic.projected_items"] += static_cast<double>(Rows(qa));

    // Pseudo-M-step pieces, on kThreads as in Fit: Eq. 12, then one
    // sharded epoch of minibatch training on a master and slot replicas
    // built by the factory, the master holding the fitted weights.
    util::Parallelizer exec(kThreads);
    {
      crowd::ConfusionSet confusions;
      Span span(values, "core.update_confusions_s");
      core::UpdateConfusions(m.qf(), task_.annotations,
                             task_.config.confusion_smoothing, &confusions,
                             &exec);
    }
    util::Rng rng(fit_seed_ ^ 0x1a7e5);
    std::vector<std::unique_ptr<models::Model>> replicas;
    std::vector<models::Model*> slot_models;
    for (int s = 0; s < util::Parallelizer::kSlots; ++s) {
      replicas.push_back(task_.factory(&rng));
      slot_models.push_back(replicas.back().get());
    }
    const std::vector<nn::Parameter*> params = slot_models[0]->Params();
    const std::vector<nn::Parameter*> fitted = m.model()->Params();
    for (size_t p = 0; p < params.size(); ++p) {
      params[p]->value = fitted[p]->value;
    }
    const std::unique_ptr<nn::Optimizer> optimizer =
        nn::MakeOptimizer(task_.config.optimizer);
    double step_seconds = 0.0;
    TimedOptimizer timed(optimizer.get(), &step_seconds);
    const std::vector<float> weights =
        task_.config.weighted_loss
            ? core::AnnotatorCountWeights(task_.annotations)
            : std::vector<float>();
    util::Stopwatch epoch;
    core::RunMinibatchEpochSharded(train, m.qf(), weights,
                                   task_.config.batch_size, slot_models[0],
                                   slot_models, &timed, &rng, &exec);
    (*values)["models.train_step_s"] += epoch.Seconds() - step_seconds;
    (*values)["nn.optimizer_step_s"] += step_seconds;
  }

 private:
  Learner MakeLearner(util::Rng* rng) const {
    Learner l;
    if (task_.train.sequence) {
      l.rule = core::MakeNerRuleProjector();
      l.lncl = std::make_unique<core::LogicLncl>(task_.config, task_.factory,
                                                 l.rule.get());
      return l;
    }
    std::unique_ptr<models::Model> model = task_.factory(rng);
    l.rule = std::make_unique<core::SentimentButRule>(
        model.get(), task_.but_token, /*weight=*/1.0);
    l.lncl = std::make_unique<core::LogicLncl>(
        task_.config, std::move(model), l.rule.get(), task_.factory);
    return l;
  }

  // Accuracy (sentiment) or strict span F1 (NER) of posteriors.
  static double Score(const std::vector<util::Matrix>& posteriors,
                      const data::Dataset& d) {
    return d.sequence ? eval::PosteriorSpanF1(posteriors, d).f1
                      : eval::PosteriorAccuracy(posteriors, d);
  }

  FitTask task_;
  uint64_t fit_seed_;
  std::optional<uint64_t> reference_;
  Learner last_;
};

std::unique_ptr<Workload> MakeSentimentFit(uint64_t seed) {
  util::Rng rng(seed);
  data::SentimentCorpus corpus =
      data::GenerateSentimentCorpus(SentimentGen(), 4999, 3000, 2789, &rng);
  const crowd::CrowdSimulator sim =
      crowd::CrowdSimulator::MakeClassification(SentimentCrowd(203), 2, &rng);
  FitTask t;
  t.annotations = sim.Annotate(corpus.train, &rng);
  t.factory = models::TextCnn::Factory(SentimentModel(), corpus.embeddings);
  t.config = SentimentLncl();
  t.but_token = corpus.but_token;
  t.student_floor = kSentimentStudentFloor;
  t.teacher_floor = kSentimentTeacherFloor;
  t.inference_floor = kSentimentInferenceFloor;
  t.train = std::move(corpus.train);
  t.dev = std::move(corpus.dev);
  t.test = std::move(corpus.test);
  return std::make_unique<FitWorkload>(std::move(t), seed);
}

std::unique_ptr<Workload> MakeNerFit(uint64_t seed) {
  util::Rng rng(seed);
  data::NerCorpus corpus =
      data::GenerateNerCorpus(NerGen(), 900, 250, 350, &rng);
  const crowd::CrowdSimulator sim =
      crowd::CrowdSimulator::MakeSequence(NerCrowd(30), &rng);
  FitTask t;
  t.annotations = sim.AnnotateSequences(corpus.train, &rng);
  t.factory = models::NerTagger::Factory(NerModel(), corpus.embeddings);
  t.config = NerLncl(kNerEpochs);
  t.student_floor = kNerStudentFloor;
  t.teacher_floor = kNerTeacherFloor;
  t.inference_floor = kNerInferenceFloor;
  t.train = std::move(corpus.train);
  t.dev = std::move(corpus.dev);
  t.test = std::move(corpus.test);
  return std::make_unique<FitWorkload>(std::move(t), seed);
}

// ---- ner_serve. -----------------------------------------------------------

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(uint64_t seed) : config_(NerLncl(kServeFitEpochs)) {
    util::Rng rng(seed);
    data::NerCorpus corpus =
        data::GenerateNerCorpus(NerGen(), 900, 250, kServeStream, &rng);
    const crowd::CrowdSimulator sim =
        crowd::CrowdSimulator::MakeSequence(NerCrowd(30), &rng);
    const crowd::AnnotationSet annotations =
        sim.AnnotateSequences(corpus.train, &rng);
    rule_ = core::MakeNerRuleProjector();
    lncl_ = std::make_unique<core::LogicLncl>(
        config_,
        models::NerTagger::Factory(NerModel(), corpus.embeddings),
        rule_.get());
    util::Rng fit_rng(FitSeed(seed));
    lncl_->Fit(corpus.train, annotations, corpus.dev, &fit_rng);

    // Each request holds only its own slice of the stream.
    stream_ = std::move(corpus.test);
    for (int start = 0; start < stream_.size(); start += kRequestSentences) {
      data::Dataset request;
      request.num_classes = stream_.num_classes;
      request.sequence = stream_.sequence;
      const auto begin = stream_.instances.begin() + start;
      request.instances.assign(
          begin, begin + std::min(kRequestSentences, stream_.size() - start));
      requests_.push_back(std::move(request));
    }
  }

  const char* op_name() const override { return "request"; }

  // One pass: every request once, in order, from one closed-loop client.
  UnitReport RunUnit() override {
    UnitReport r;
    const std::map<std::string, double> before = CounterSnapshot();
    const bool warm_up = reference_.empty();
    std::vector<std::vector<int>> tags;
    tags.reserve(stream_.instances.size());
    for (size_t q = 0; q < requests_.size(); ++q) {
      const data::Dataset& request = requests_[q];
      util::Stopwatch watch;
      const std::vector<util::Matrix> out =
          lncl_->PredictTeacherBatch(request);
      r.op_seconds.push_back(watch.Seconds());
      r.op_items.push_back(static_cast<double>(request.TotalItems()));

      bool ok = out.size() == request.instances.size() &&
                AllRowStochastic(out);
      for (size_t i = 0; ok && i < out.size(); ++i) {
        ok = out[i].rows() == request.NumItems(static_cast<int>(i)) &&
             out[i].cols() == request.num_classes;
      }
      const uint64_t h = HashMatrices(out);
      if (warm_up) reference_.push_back(h);
      if (!ok || h != reference_[q]) ++r.failed_ops;
      for (const util::Matrix& m : out) tags.push_back(eval::ArgmaxRows(m));
    }
    r.counters = CounterDelta(before);
    const double teacher_score = tags.size() == stream_.instances.size()
                                     ? eval::SpanF1(tags, stream_).f1
                                     : 0.0;
    r.details = {{"teacher_score", teacher_score}};
    if (teacher_score < kServeTeacherFloor) {
      r.failed_ops = static_cast<int64_t>(requests_.size());
    }
    return r;
  }

  void LayerPass(LayerValues* values) override {
    for (const data::Dataset& request : requests_) {
      std::vector<util::Matrix> out;
      {
        Span span(values, "models.predict_batch_s");
        out = lncl_->PredictStudentBatch(request);
      }
      {
        Span span(values, "logic.project_batch_s");
        rule_->ProjectBatch(Pointers(request), &out, config_.C);
      }
      (*values)["logic.projected_items"] += static_cast<double>(Rows(out));
    }
    lncl_->SetQuantizedPredict(true);
    for (const data::Dataset& request : requests_) {
      Span span(values, "models.predict_int8_s");
      lncl_->PredictStudentBatch(request);
    }
    lncl_->SetQuantizedPredict(false);
  }

 private:
  core::LogicLnclConfig config_;
  std::unique_ptr<logic::RuleProjector> rule_;
  std::unique_ptr<core::LogicLncl> lncl_;
  data::Dataset stream_;  // with gold tags, for scoring a pass
  std::vector<data::Dataset> requests_;
  std::vector<uint64_t> reference_;  // per-request output hash
};

// ---- ner_aggregate. -------------------------------------------------------

class AggregateWorkload : public Workload {
 public:
  explicit AggregateWorkload(uint64_t seed) : seed_(seed) {
    util::Rng rng(seed);
    data::NerCorpus corpus =
        data::GenerateNerCorpus(NerGen(), 5985, 0, 0, &rng);
    const crowd::CrowdSimulator sim =
        crowd::CrowdSimulator::MakeSequence(NerCrowd(47), &rng);
    annotations_ = sim.AnnotateSequences(corpus.train, &rng);
    train_ = std::move(corpus.train);
    items_ = inference::ItemsPerInstance(train_);
    // The iterative aggregators run a fixed number of EM iterations (a
    // negative tolerance never converges early), so a round does the same
    // work for every seed. IBCC has no tolerance option; its EM stops at a
    // change of 1e-5, which takes 5 to 9 iterations on this crowd (seeds
    // 1-40), so a cap of 4 always runs all 4.
    const inference::DawidSkene::Options ds = {
        .max_iters = 5, .tol = -1.0, .smoothing = 1e-2};
    const inference::Ibcc::Options ibcc = {
        .diag_pseudo = 2.0, .smoothing = 0.5, .max_iters = 4};
    const inference::BscSeq::Options bsc = {.max_iters = 10,
                                            .confusion_pseudo = 0.3,
                                            .diag_pseudo = 1.0,
                                            .transition_pseudo = 0.2,
                                            .tol = -1.0};
    const inference::HmmCrowd::Options hmm = {
        .max_iters = 5, .smoothing = 0.1, .tol = -1.0};
    methods_.push_back({"inference.mv_s",
                        std::make_unique<inference::MajorityVote>()});
    methods_.push_back({"inference.ds_s",
                        std::make_unique<inference::DawidSkene>(ds)});
    methods_.push_back({"inference.ibcc_s",
                        std::make_unique<inference::Ibcc>(ibcc)});
    methods_.push_back({"inference.bsc_seq_s",
                        std::make_unique<inference::BscSeq>(bsc)});
    methods_.push_back({"inference.hmm_crowd_s",
                        std::make_unique<inference::HmmCrowd>(hmm)});
  }

  const char* op_name() const override { return "round"; }

  // One round: every aggregator once. Only the Infer calls are timed.
  UnitReport RunUnit() override {
    UnitReport r;
    const std::map<std::string, double> before = CounterSnapshot();
    bool ok = true;
    uint64_t h = kFnvOffset;
    double f1_sum = 0.0;
    double seconds = 0.0;
    for (const Method& method : methods_) {
      util::Rng rng(seed_ ^ 0xa99);
      util::Stopwatch watch;
      const std::vector<util::Matrix> posteriors =
          method.impl->Infer(annotations_, items_, &rng);
      seconds += watch.Seconds();
      ok = ok && posteriors.size() == items_.size() &&
           AllRowStochastic(posteriors);
      h = HashMatrices(posteriors, h);
      const double f1 = eval::PosteriorSpanF1(posteriors, train_).f1;
      f1_sum += f1;
      r.details.emplace_back(method.impl->name() + "_f1", f1);
    }
    r.counters = CounterDelta(before);
    r.op_seconds.push_back(seconds);
    r.op_items.push_back(static_cast<double>(train_.TotalItems()) *
                         static_cast<double>(methods_.size()));
    const double mean_f1 = f1_sum / static_cast<double>(methods_.size());
    r.details.emplace_back("inference_score", mean_f1);
    if (!reference_) reference_ = h;
    r.failed_ops =
        ok && h == *reference_ && mean_f1 >= kAggregateMeanF1Floor ? 0 : 1;
    return r;
  }

  void LayerPass(LayerValues* values) override {
    for (const Method& method : methods_) {
      util::Rng rng(seed_ ^ 0xa99);
      Span span(values, method.metric);
      method.impl->Infer(annotations_, items_, &rng);
    }
  }

 private:
  struct Method {
    const char* metric;
    std::unique_ptr<inference::TruthInference> impl;
  };

  uint64_t seed_;
  data::Dataset train_;
  crowd::AnnotationSet annotations_;
  std::vector<int> items_;
  std::vector<Method> methods_;
  std::optional<uint64_t> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "sentiment_fit") return MakeSentimentFit(seed);
  if (name == "ner_fit") return MakeNerFit(seed);
  if (name == "ner_serve") return std::make_unique<ServeWorkload>(seed);
  if (name == "ner_aggregate") {
    return std::make_unique<AggregateWorkload>(seed);
  }
  return nullptr;
}

}  // namespace lncl::benchmark
