#pragma once

#include <vector>

#include "crowd/annotation.h"
#include "crowd/confusion.h"
#include "data/dataset.h"
#include "models/model.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace lncl::core {

// Shared machinery of the EM-style trainers (Logic-LNCL, AggNet, Raykar,
// two-stage, ablations). Kept as free functions / small value types so each
// trainer reads like its pseudo-code.

// One epoch of minibatch soft-target training: shuffles the instance order,
// and for every minibatch accumulates gradients of
//   weight_i * CE(targets[i], p(x_i))
// before an optimizer step (Eq. 11). `weights` may be empty (all ones) —
// when present it carries num(J^(i)) for the weighted objective (Eq. 10).
// Returns the mean per-instance loss.
//
// Each minibatch is split into util::Parallelizer::kSlots contiguous slots,
// and each slot sums its instances' gradients from zero into its own
// gradient buffers. slot_models[0] must be the master; slot_models[1..]
// (optional, at most kSlots - 1) are replicas with the master's
// architecture. min(exec threads, slot_models.size()) workers run: worker w
// trains slot_models[w] on slots w, w + workers, ..., swapping each slot's
// buffers into its Parameter::grad for the slot. The master then merges the
// slot losses and gradients in slot-index order and the optimizer steps it;
// only the replicas of running workers get the new values. Dropout draws
// come from a per-instance generator keyed by (epoch seed, position in the
// shuffled order), so the sampled masks do not depend on execution order
// either. The result is bit-identical for any thread count and any number
// of replicas.
double RunMinibatchEpochSharded(const data::Dataset& dataset,
                                const std::vector<util::Matrix>& targets,
                                const std::vector<float>& weights,
                                int batch_size, models::Model* master,
                                const std::vector<models::Model*>& slot_models,
                                nn::Optimizer* optimizer, util::Rng* rng,
                                util::Parallelizer* exec);

// The per-annotator likelihood-log tables ComputeQa reads (built once per
// E-step; shared with the stand-alone aggregators).
using crowd::LogConfusions;

// Truth posterior of one instance given the classifier prior `probs`
// (items x K) and the crowd labels, under the confusion-matrix likelihood —
// Eq. 13 / Eq. A.2, computed in log space per item. `log_confusions` is
// LogConfusions(confusions), so each annotator's logs are taken once per
// E-step rather than once per labeled instance.
util::Matrix ComputeQa(const util::Matrix& probs,
                       const crowd::InstanceAnnotations& annotations,
                       const std::vector<util::Matrix>& log_confusions);

// Closed-form confusion-matrix update from soft truth estimates — Eq. 12.
// `smoothing` is an additive pseudo-count before row normalization. The
// per-instance counts are accumulated into util::Parallelizer::kSlots
// per-slot buffers and merged in slot order, so the result is the same for
// any thread count of `exec`.
void UpdateConfusions(const std::vector<util::Matrix>& qf,
                      const crowd::AnnotationSet& annotations,
                      double smoothing, crowd::ConfusionSet* confusions,
                      util::Parallelizer* exec);

// Early stopping on a dev score with patience, snapshotting the best
// parameter values. Typical use:
//
//   EarlyStopper stopper(patience);
//   for (epoch ...) {
//     ... train ...
//     if (stopper.Update(dev_score, params)) break;
//   }
//   stopper.Restore(params);
class EarlyStopper {
 public:
  explicit EarlyStopper(int patience) : patience_(patience) {}

  // Records the epoch score; returns true when training should stop.
  bool Update(double score, const std::vector<nn::Parameter*>& params);

  // Restores the best snapshot into `params` (no-op if none yet).
  void Restore(const std::vector<nn::Parameter*>& params) const;

  double best_score() const { return best_score_; }
  int best_epoch() const { return best_epoch_; }
  int epochs_seen() const { return epoch_; }

 private:
  int patience_;
  int epoch_ = 0;
  int best_epoch_ = -1;
  int since_best_ = 0;
  double best_score_ = -1e300;
  std::vector<util::Matrix> snapshot_;
};

// Instance weights num(J^(i)) for the Eq. 10 objective.
std::vector<float> AnnotatorCountWeights(const crowd::AnnotationSet& ann);

}  // namespace lncl::core

