#pragma once

#include <memory>

#include "data/embedding.h"
#include "models/model.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
#include "nn/linear.h"

namespace lncl::models {

// Linear-chain CRF sequence tagger: the same neural feature pipeline as
// NerTagger (static embeddings -> same-padded convolution -> ReLU ->
// dropout -> GRU) emitting per-token unary scores, combined with a learned
// K x K transition matrix and start scores — the Lample et al. (2016)
// architecture the paper contrasts its parameter-free logic rules against
// ("unlike recent work that adds a conditional random field to model
// bi-gram dependencies...").
//
// Model-interface semantics:
//   * PredictBatch / ForwardTrain return the exact per-token posterior
//     *marginals* computed by forward-backward (row-stochastic, so they
//     compose with every evaluator in eval/).
//   * BackwardSoftTarget trains the standard sequence NLL
//       -log P(y | x) = -(score(y) - log Z)
//     with y = argmax-decoded from the (possibly soft) target rows; the
//     gradient is the classic (marginal - empirical) for both the unary
//     scores and the transition/start parameters.
//   * BackwardProbGrad is NOT supported (the crowd-layer loss is defined on
//     independent per-item distributions, which a CRF does not produce) and
//     aborts loudly if called.
struct CrfTaggerConfig {
  int conv_window = 5;
  int conv_features = 64;
  int gru_hidden = 32;
  double dropout = 0.5;
  int num_classes = 9;
};

class CrfTagger : public Model {
 public:
  CrfTagger(const CrfTaggerConfig& config, data::EmbeddingPtr embeddings,
            util::Rng* rng);

  int num_classes() const override { return config_.num_classes; }
  int NumItems(const data::Instance& x) const override {
    return static_cast<int>(x.tokens.size());
  }

  // One instance at a time: unary scores, then forward-backward.
  void PredictBatch(const std::vector<const data::Instance*>& xs,
                    std::vector<util::Matrix>* out) const override;
  const util::Matrix& ForwardTrain(const data::Instance& x,
                                   util::Rng* rng) override;
  double BackwardSoftTarget(const util::Matrix& q, float w) override;
  void BackwardProbGrad(const util::Matrix& grad_probs, float w) override;
  std::vector<nn::Parameter*> Params() override;

  // Most probable tag sequence (Viterbi decoding).
  std::vector<int> Decode(const data::Instance& x) const;

  static ModelFactory Factory(const CrfTaggerConfig& config,
                              data::EmbeddingPtr embeddings);

 private:
  // Evaluation-mode neural pipeline (no dropout) up to the unary scores
  // U (T x K).
  void UnaryForward(const data::Instance& x, util::Matrix* unary) const;

  // Potentials for the chain smoother: prior_m = exp(start_m + U(0, m)) is
  // folded as prior x emission; emission rows are exp(U(t, .) - rowmax).
  void BuildPotentials(const util::Matrix& unary, util::Vector* prior,
                       util::Matrix* transition_potential,
                       util::Matrix* emission) const;

  // Backprop of dL/dU through the neural pipeline (training cache).
  void BackwardFromUnary(const util::Matrix& grad_unary);

  CrfTaggerConfig config_;
  data::EmbeddingPtr embeddings_;
  nn::Conv1d conv_;
  nn::Gru gru_;
  nn::Linear fc_;
  nn::Parameter transition_;  // K x K scores
  nn::Parameter start_;       // 1 x K scores

  struct Cache {
    util::Matrix embedded;
    util::Matrix conv_relu;
    util::Matrix conv_dropped;
    std::vector<uint8_t> dropout_mask;
    nn::Gru::Cache gru;
    util::Matrix hidden;
    util::Matrix unary;      // T x K scores
    util::Matrix marginals;  // T x K posterior marginals
    util::Matrix xi_sum;     // K x K summed pairwise posteriors
  };
  Cache cache_;  // of the last ForwardTrain
};

}  // namespace lncl::models

