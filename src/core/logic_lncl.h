#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/trainer.h"
#include "crowd/annotation.h"
#include "crowd/confusion.h"
#include "data/dataset.h"
#include "logic/posterior_reg.h"
#include "models/model.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace lncl::obs {
class RunObserver;
}  // namespace lncl::obs

namespace lncl::core {

// Schedule for the imitation strength k as a function of the (0-based)
// epoch. The paper uses min{1, 1 - 0.94^t} (sentiment) and
// min{0.8, 1 - 0.90^t} (NER).
using KSchedule = std::function<double(int)>;

KSchedule SentimentKSchedule();  // min{1.0, 1 - 0.94^t}
KSchedule NerKSchedule();        // min{0.8, 1 - 0.90^t}
KSchedule ConstantK(double k);

// Configuration of the Logic-LNCL learner (Table I of the paper).
struct LogicLnclConfig {
  double C = 5.0;                    // posterior-regularization strength
  KSchedule k_schedule;              // imitation strength (default: 0)
  bool weighted_loss = false;        // Eq. 10 (weight by num annotators)
  bool use_rules_in_training = true; // false = w/o-Rule ablation (AggNet)
  int epochs = 30;
  int batch_size = 50;
  int patience = 5;
  double confusion_smoothing = 0.01;
  nn::OptimizerConfig optimizer;
  // Intra-model parallelism (see DESIGN.md §5).
  //   0  — legacy serial training path (the historical trajectory).
  //  >=1 — deterministic sharded path with that many threads: the E-step,
  //        the confusion M-step, and minibatch gradient accumulation run
  //        over fixed slot partitions with fixed-order reductions, so
  //        results are bit-identical for every threads >= 1 setting.
  //        threads = 1 runs the same sharded trajectory serially.
  int threads = 0;
  // E-step chunk size: true runs each slot's instances through one
  // PredictBatch / ProjectBatch call, false one instance per call (the
  // benches' per-instance baseline). There is one E-step body either way,
  // and a prediction never depends on its batch-mates, so the two are
  // bit-identical at any threads setting and this only changes speed. The
  // field stays only because the repository benchmark sets it by name.
  bool batch_predict = true;
  // Serve PredictStudentBatch / PredictTeacherBatch from post-training int8
  // weights (per-row symmetric quantization, fp32 accumulate; see
  // nn/quantize.h and DESIGN.md §9). Inference-only: training, the E-step,
  // and the per-instance PredictStudent / PredictTeacher always run fp32.
  // Off by default; the bench accuracy gate records the int8-vs-fp32 argmax
  // agreement.
  bool quantized_predict = false;
  // Optional telemetry sink (src/obs/run_log.h): receives one EpochRecord
  // per epoch (loss, dev score, k(t), KL(q_a || q_b), rule satisfaction,
  // confusion diagnostics, phase seconds) and a FitSummary when Fit returns.
  // Observation only — attaching an observer never changes the fitted
  // numbers. Not owned; null (default) skips all diagnostic computation.
  obs::RunObserver* run_observer = nullptr;
};

// Wall-clock breakdown of the Fit epoch loop, summed over epochs (seconds).
struct PhaseSeconds {
  double m_step = 0.0;     // minibatch network updates (Eq. 8/10/11)
  double confusion = 0.0;  // closed-form annotator update (Eq. 12)
  double e_step = 0.0;     // q_a / q_b / q_f sweep (Eq. 13/15/9)
  double dev_eval = 0.0;   // dev-set model selection
  double total = 0.0;      // the whole Fit call
};

// Summary of a fitted run.
//
// Curve bookkeeping: dev_curve / loss_curve hold one entry per epoch that
// actually ran (size == epochs_run, which can be < config.epochs when early
// stopping fires). best_epoch indexes into those curves and names the epoch
// whose parameters, q_f, and confusions were restored — NOT the last epoch
// run; when early_stopped is true the curves carry a post-best tail of
// `patience` non-improving epochs whose updates were discarded.
struct LogicLnclResult {
  double best_dev_score = 0.0;  // dev accuracy / span-F1 at the best epoch
  int best_epoch = -1;          // epoch restored by model selection
  int epochs_run = 0;           // epochs actually executed (curve length)
  bool early_stopped = false;   // true iff patience ended the run early
  std::vector<double> dev_curve;   // dev score per epoch (student)
  std::vector<double> loss_curve;  // mean training loss per epoch
  PhaseSeconds phase_seconds;      // where the time went
};

// Logic-guided Learning from Noisy Crowd Labels: the EM-alike iterative
// logic knowledge distillation framework of the paper (Algorithm 1).
//
// Per epoch:
//   pseudo-M-step: minibatch updates of the network on targets q_f (Eq. 8 /
//     Eq. 10), then the closed-form annotator update (Eq. 12) with q_f;
//   pseudo-E-step: q_a from Bayes' rule over the current network and
//     confusions (Eq. 13); q_b by projecting q_a through the rule set
//     (Eq. 15); q_f = (1-k) q_a + k q_b (Eq. 9).
//
// q_f is initialized with Majority Voting. Early stopping selects the epoch
// with the best dev-set score of the student network and restores its
// parameters, q_f, and confusions.
//
// Prediction: PredictStudent is the raw network p(t|x; Theta); PredictTeacher
// additionally projects the prediction through Eq. 15 with q_a replaced by
// p(t|x; Theta) ("employ q_b(t) at test phase").
class LogicLncl {
 public:
  // `projector` may be null (no rules; with k=0 this is exactly the AggNet /
  // Raykar-style EM depending on the model factory). Not owned.
  LogicLncl(LogicLnclConfig config, models::ModelFactory factory,
            const logic::RuleProjector* projector);

  // Takes a pre-built model instead of a factory. This is how the sentiment
  // "but" rule is wired: the projector must consult the very model being
  // trained, so the caller builds the model first, binds the projector to
  // it, and hands both over. `replica_factory` (optional) builds
  // architecture-matched replicas, one per training thread beyond the first
  // when config.threads > 1; without it the master trains alone. Either way
  // the fit is the same sharded trajectory (config.threads >= 1).
  LogicLncl(LogicLnclConfig config, std::unique_ptr<models::Model> model,
            const logic::RuleProjector* projector,
            models::ModelFactory replica_factory = nullptr);

  // Trains on crowd labels; `dev` (with gold labels) drives early stopping.
  LogicLnclResult Fit(const data::Dataset& train,
                      const crowd::AnnotationSet& annotations,
                      const data::Dataset& dev, util::Rng* rng);

  // Semi-supervised variant (after Atarashi et al., 2018): instances whose
  // index appears in `gold_indices` anchor q_f to their one-hot ground truth
  // throughout training — the E-step never overwrites them. Useful when a
  // small expert-labeled subset exists next to the crowd labels.
  LogicLnclResult FitSemiSupervised(const data::Dataset& train,
                                    const crowd::AnnotationSet& annotations,
                                    const std::vector<int>& gold_indices,
                                    const data::Dataset& dev, util::Rng* rng);

  // Checkpointing: persists / restores the trained network parameters
  // (names and shapes must match; see nn/serialize.h). The model must exist
  // (i.e. Fit ran, or the pre-built-model constructor was used).
  void SaveModel(std::ostream& os) const;
  bool LoadModel(std::istream& is);

  // One instance: Model::Predict, then RuleProjector::Project for the
  // teacher (both batches of one).
  util::Matrix PredictStudent(const data::Instance& x) const;
  util::Matrix PredictTeacher(const data::Instance& x) const;

  // The same over a whole dataset in one PredictBatch (and ProjectBatch)
  // call; bit-identical to looping the per-instance forms.
  std::vector<util::Matrix> PredictStudentBatch(
      const data::Dataset& dataset) const;
  std::vector<util::Matrix> PredictTeacherBatch(
      const data::Dataset& dataset) const;

  // Final truth estimates q_f on the training set (the paper's "Inference"
  // metric for Logic-LNCL) and annotator confusion estimates (Figures 6/7).
  const std::vector<util::Matrix>& qf() const { return qf_; }
  const crowd::ConfusionSet& confusions() const { return confusions_; }

  models::Model* model() { return model_.get(); }
  const models::Model* model() const { return model_.get(); }

  // Serving-time switch for config.quantized_predict (see the config field):
  // affects only the batched Predict*Batch entries. The bench int8 gate uses
  // this to score the same fitted model both ways.
  void SetQuantizedPredict(bool on) { config_.quantized_predict = on; }

 private:
  LogicLnclResult FitInternal(const data::Dataset& train,
                              const crowd::AnnotationSet& annotations,
                              const std::vector<int>& gold_indices,
                              const data::Dataset& dev, util::Rng* rng);

  LogicLnclConfig config_;
  models::ModelFactory factory_;
  const logic::RuleProjector* projector_;

  std::unique_ptr<models::Model> model_;
  std::vector<util::Matrix> qf_;
  crowd::ConfusionSet confusions_;
};

}  // namespace lncl::core

