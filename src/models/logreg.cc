#include "models/logreg.h"

#include <algorithm>

#include "nn/softmax.h"
#include "util/check.h"
#include "util/workspace.h"

namespace lncl::models {

LogisticRegression::LogisticRegression(int num_classes,
                                       data::EmbeddingPtr embeddings,
                                       util::Rng* rng)
    : embeddings_(std::move(embeddings)),
      fc_("logreg.fc", embeddings_->dim(), num_classes, rng) {}

void LogisticRegression::Features(const data::Instance& x,
                                  util::Matrix* embedded, float* feat) const {
  embeddings_->Lookup(x.tokens, embedded);
  const int dim = embeddings_->dim();
  std::fill(feat, feat + dim, 0.0f);
  if (embedded->rows() == 0) return;
  for (int t = 0; t < embedded->rows(); ++t) {
    const float* row = embedded->Row(t);
    for (int d = 0; d < dim; ++d) feat[d] += row[d];
  }
  const float inv = 1.0f / static_cast<float>(embedded->rows());
  for (int d = 0; d < dim; ++d) feat[d] *= inv;
}

void LogisticRegression::PredictBatch(
    const std::vector<const data::Instance*>& xs,
    std::vector<util::Matrix>* out) const {
  out->resize(xs.size());
  if (xs.empty()) return;

  const int dim = embeddings_->dim();
  const int k_cls = num_classes();
  util::WorkspaceScope scope;
  util::Matrix& feats = scope.NewMatrix(static_cast<int>(xs.size()), dim);
  util::Matrix& embedded = scope.NewMatrix();
  util::Matrix& logits = scope.NewMatrix();
  util::Matrix& probs = scope.NewMatrix();

  for (size_t i = 0; i < xs.size(); ++i) {
    Features(*xs[i], &embedded, feats.Row(static_cast<int>(i)));
  }

  fc_.ForwardRows(feats, &logits);
  nn::SoftmaxRows(logits, &probs);
  for (size_t i = 0; i < xs.size(); ++i) {
    util::Matrix m(1, k_cls);
    std::copy(probs.Row(static_cast<int>(i)),
              probs.Row(static_cast<int>(i)) + k_cls, m.Row(0));
    (*out)[i] = std::move(m);
  }
}

const util::Matrix& LogisticRegression::ForwardTrain(const data::Instance& x,
                                                     util::Rng*) {
  feat_.resize(embeddings_->dim());
  util::Matrix embedded;
  Features(x, &embedded, feat_.data());
  util::Vector logits, probs;
  fc_.Forward(feat_, &logits);
  nn::Softmax(logits, &probs);
  probs_.Resize(1, num_classes());
  std::copy(probs.begin(), probs.end(), probs_.Row(0));
  return probs_;
}

double LogisticRegression::BackwardSoftTarget(const util::Matrix& q,
                                               float w) {
  LNCL_DCHECK(q.rows() == 1 && q.cols() == num_classes());
  LNCL_AUDIT_SIMPLEX(q);
  const util::Vector p(probs_.Row(0), probs_.Row(0) + num_classes());
  const util::Vector qv(q.Row(0), q.Row(0) + num_classes());
  util::Vector grad_logits;
  nn::SoftmaxCrossEntropyGrad(qv, p, w, &grad_logits);
  fc_.Backward(feat_, grad_logits, nullptr);
  return w * nn::CrossEntropy(qv, p);
}

void LogisticRegression::BackwardProbGrad(const util::Matrix& grad_probs,
                                          float w) {
  LNCL_DCHECK(grad_probs.rows() == 1);
  const util::Vector p(probs_.Row(0), probs_.Row(0) + num_classes());
  const util::Vector gp(grad_probs.Row(0), grad_probs.Row(0) + num_classes());
  util::Vector grad_logits;
  nn::SoftmaxJacobianVecProduct(p, gp, w, &grad_logits);
  fc_.Backward(feat_, grad_logits, nullptr);
}

ModelFactory LogisticRegression::Factory(int num_classes,
                                         data::EmbeddingPtr embeddings) {
  return [num_classes, embeddings](util::Rng* rng) {
    return std::make_unique<LogisticRegression>(num_classes, embeddings, rng);
  };
}

}  // namespace lncl::models
