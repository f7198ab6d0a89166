#pragma once

#include "data/embedding.h"
#include "models/model.h"
#include "nn/linear.h"

namespace lncl::models {

// Multinomial logistic regression over mean-pooled word embeddings.
//
// This is the classifier of the original Raykar et al. (2010) EM model,
// which the paper reports as a baseline: a single softmax layer on a fixed
// sentence representation (here: the average of the static embeddings).
class LogisticRegression : public Model {
 public:
  LogisticRegression(int num_classes, data::EmbeddingPtr embeddings,
                     util::Rng* rng);

  int num_classes() const override { return fc_.out_dim(); }
  int NumItems(const data::Instance&) const override { return 1; }

  // Batched prediction: mean-pooled features stacked into one B x D matrix,
  // then a single fc GEMM + row softmax (no bucketing needed — only the
  // pooling loop depends on length).
  void PredictBatch(const std::vector<const data::Instance*>& xs,
                    std::vector<util::Matrix>* out) const override;
  const util::Matrix& ForwardTrain(const data::Instance& x,
                                   util::Rng* rng) override;
  double BackwardSoftTarget(const util::Matrix& q, float w) override;
  void BackwardProbGrad(const util::Matrix& grad_probs, float w) override;
  std::vector<nn::Parameter*> Params() override { return fc_.Params(); }

  static ModelFactory Factory(int num_classes, data::EmbeddingPtr embeddings);

 private:
  // Mean of x's embedding rows into feat[0, dim); `embedded` is scratch.
  void Features(const data::Instance& x, util::Matrix* embedded,
                float* feat) const;

  data::EmbeddingPtr embeddings_;
  nn::Linear fc_;

  util::Vector feat_;
  util::Matrix probs_;
};

}  // namespace lncl::models

