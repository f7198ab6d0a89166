#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "nn/parameter.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace lncl::models {

// Common interface for trainable classifiers.
//
// The library views every task through the item lens (see data/dataset.h):
// a model maps an instance to an (items x K) matrix of class distributions —
// one row for sentence classification, one row per token for sequence
// tagging. This lets the EM-style trainers (Logic-LNCL, AggNet, Raykar,
// two-stage) and the crowd-layer baselines share a single code path across
// both of the paper's applications.
//
// Training protocol: call ForwardTrain (dropout active, cache retained),
// then exactly one of the Backward* methods, which accumulates parameter
// gradients; the optimizer's Step() later consumes them.
//
// Threading: the const methods (PredictBatch, and Predict on top of it) are
// safe to call concurrently on one instance — layer scratch lives in
// thread-local buffers and the per-thread util::Workspace arena — which is
// what the parallel E-step relies on. The mutable training protocol is not:
// the sharded trainer gives each worker thread its own model (the master or a
// replica) and swaps per-slot gradient buffers into it, merging them in
// fixed slot order (see core/trainer.h and DESIGN.md §5).
class Model {
 public:
  virtual ~Model() = default;

  virtual int num_classes() const = 0;
  virtual int NumItems(const data::Instance& x) const = 0;

  // Evaluation-mode prediction (no dropout), the only inference entry:
  // (*out)[i] is the items x K row-stochastic prediction for *xs[i]. TextCnn,
  // NerTagger, and LogisticRegression run length-bucketed packed kernels
  // (embedding gather + [B*L, .] GEMMs + time-major recurrence); the batch
  // dimension only adds GEMM rows and never reorders a reduction, so an
  // instance's prediction does not depend on its batch-mates
  // (tests/batch_predict_test.cc). Batch temporaries live in the per-thread
  // util::Workspace arena.
  virtual void PredictBatch(const std::vector<const data::Instance*>& xs,
                            std::vector<util::Matrix>* out) const = 0;

  // PredictBatch on a batch of one.
  util::Matrix Predict(const data::Instance& x) const;

  // Predictions for every instance of a dataset.
  std::vector<util::Matrix> PredictBatch(const data::Dataset& dataset) const;

  // Training-mode forward. The returned reference stays valid until the next
  // ForwardTrain call on this model.
  virtual const util::Matrix& ForwardTrain(const data::Instance& x,
                                           util::Rng* rng) = 0;

  // Accumulates gradients of  w * sum_items CE(q_row, p_row)  and returns
  // that loss. q must be items x K.
  virtual double BackwardSoftTarget(const util::Matrix& q, float w) = 0;

  // Accumulates gradients for a caller-provided dLoss/dprobs (items x K),
  // scaled by w. Used by the crowd-layer baselines.
  virtual void BackwardProbGrad(const util::Matrix& grad_probs, float w) = 0;

  virtual std::vector<nn::Parameter*> Params() = 0;

  // Toggles the post-training int8 serving mode for subsequent predictions
  // (see nn/quantize.h). The default is a no-op: models without a
  // quantizable stack simply keep serving fp32. Quantization
  // happens eagerly inside the call, so it must not race concurrent
  // predictions — the trainers toggle it from the single-threaded serving
  // entry points (core::LogicLncl::PredictStudentBatch and friends), never
  // during the parallel E-step.
  virtual void SetQuantizedPredict(bool /*on*/) {}
};

// Builds a freshly initialized model; each call must produce independent
// parameters (weights drawn from `rng`).
using ModelFactory =
    std::function<std::unique_ptr<Model>(util::Rng* rng)>;

// Ceiling on the instances packed into one [B, L] block by the batched
// prediction kernels: bounds the workspace high-water mark (the packed
// buffers scale with B * L) without affecting results — per-row arithmetic
// is independent of the bucket composition.
inline constexpr int kMaxPredictBatch = 64;

// One equal-length group of a prediction batch: positions (into the `xs`
// span handed to PredictBatch) of the instances with `length` tokens, capped
// at kMaxPredictBatch members per bucket.
struct LengthBucket {
  int length = 0;
  std::vector<int> members;
};

// Deterministic grouping of a batch by token count (ascending length,
// positions in input order, oversize groups split at the cap).
std::vector<LengthBucket> BucketByLength(
    const std::vector<const data::Instance*>& xs);

}  // namespace lncl::models

