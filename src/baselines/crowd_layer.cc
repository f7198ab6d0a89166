#include "baselines/crowd_layer.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "core/trainer.h"
#include "eval/metrics.h"
#include "inference/truth_inference.h"
#include "util/check.h"

namespace lncl::baselines {

namespace {
// Clipping floor for the unnormalized crowd-layer scores, matching the
// epsilon the reference implementation clips cross-entropy inputs with.
constexpr float kScoreFloor = 1e-6f;
}  // namespace

void CrowdLayer::AnnotatorForward(int annotator, const util::Vector& p,
                                  util::Vector* scores) const {
  const nn::Parameter& a = *annotator_params_[annotator];
  const int k = static_cast<int>(p.size());
  scores->assign(k, 0.0f);
  switch (config_.kind) {
    case CrowdLayerConfig::Kind::kMW:
      for (int m = 0; m < k; ++m) {
        const float* row = a.value.Row(m);
        float s = 0.0f;
        for (int n = 0; n < k; ++n) s += row[n] * p[n];
        (*scores)[m] = s;
      }
      break;
    case CrowdLayerConfig::Kind::kVW:
      for (int m = 0; m < k; ++m) (*scores)[m] = a.value(0, m) * p[m];
      break;
    case CrowdLayerConfig::Kind::kVWB:
      for (int m = 0; m < k; ++m) {
        (*scores)[m] = a.value(0, m) * p[m] + a.value(1, m);
      }
      break;
  }
}

void CrowdLayer::AnnotatorBackward(int annotator, const util::Vector& p,
                                   const util::Vector& scores, int label,
                                   util::Vector* grad_p) {
  nn::Parameter& a = *annotator_params_[annotator];
  const int k = static_cast<int>(p.size());
  // loss = -log(clip(scores[label])): only the true-label score receives
  // gradient, dL/dscore_y = -1 / score_y. Like tf.clip_by_value, the clip
  // passes zero gradient when the score sits outside the clip range.
  if (scores[label] <= kScoreFloor || scores[label] >= 1.0f) return;
  const float g = -1.0f / scores[label];
  switch (config_.kind) {
    case CrowdLayerConfig::Kind::kMW: {
      float* grow = a.grad.Row(label);
      const float* wrow = a.value.Row(label);
      for (int n = 0; n < k; ++n) {
        grow[n] += g * p[n];
        (*grad_p)[n] += g * wrow[n];
      }
      break;
    }
    case CrowdLayerConfig::Kind::kVW:
      a.grad(0, label) += g * p[label];
      (*grad_p)[label] += g * a.value(0, label);
      break;
    case CrowdLayerConfig::Kind::kVWB:
      a.grad(0, label) += g * p[label];
      a.grad(1, label) += g;
      (*grad_p)[label] += g * a.value(0, label);
      break;
  }
}

CrowdLayerResult CrowdLayer::Fit(const data::Dataset& train,
                                 const crowd::AnnotationSet& annotations,
                                 const data::Dataset& dev, util::Rng* rng) {
  CrowdLayerResult result;
  // The crowd layer indexes its tables by every entry's annotator and
  // labels: refuse a crowd that does not fit the training split first.
  annotations.CheckEntries(inference::ItemsPerInstance(train));
  model_ = factory_(rng);
  const int k = model_->num_classes();
  LNCL_CHECK(annotations.num_classes() == k);

  // Identity-like initialization: the crowd layer starts as a pass-through.
  annotator_params_.clear();
  for (int j = 0; j < annotations.num_annotators(); ++j) {
    const std::string name = "cl.annotator" + std::to_string(j);
    switch (config_.kind) {
      case CrowdLayerConfig::Kind::kMW: {
        auto p = std::make_unique<nn::Parameter>(name, k, k);
        for (int m = 0; m < k; ++m) p->value(m, m) = 1.0f;
        annotator_params_.push_back(std::move(p));
        break;
      }
      case CrowdLayerConfig::Kind::kVW: {
        auto p = std::make_unique<nn::Parameter>(name, 1, k);
        for (int m = 0; m < k; ++m) p->value(0, m) = 1.0f;
        annotator_params_.push_back(std::move(p));
        break;
      }
      case CrowdLayerConfig::Kind::kVWB: {
        auto p = std::make_unique<nn::Parameter>(name, 2, k);
        for (int m = 0; m < k; ++m) p->value(0, m) = 1.0f;
        annotator_params_.push_back(std::move(p));
        break;
      }
    }
  }

  std::vector<nn::Parameter*> all_params = model_->Params();
  for (auto& p : annotator_params_) all_params.push_back(p.get());

  std::unique_ptr<nn::Optimizer> optimizer =
      nn::MakeOptimizer(config_.optimizer);

  // Optional MV pre-training of the bottleneck network.
  if (config_.pretrain_epochs > 0) {
    const std::vector<util::Matrix> mv_targets =
        annotations.MajorityVote(inference::ItemsPerInstance(train));
    util::Parallelizer exec;
    for (int epoch = 0; epoch < config_.pretrain_epochs; ++epoch) {
      core::RunMinibatchEpochSharded(train, mv_targets, {}, config_.batch_size,
                                     model_.get(), {model_.get()},
                                     optimizer.get(), rng, &exec);
    }
  }

  core::EarlyStopper stopper(config_.patience);

  std::vector<int> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  util::Vector p_item, scores_j;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    nn::ApplyLrSchedule(config_.optimizer, epoch, optimizer.get());
    rng->Shuffle(&order);
    int in_batch = 0;
    for (int idx : order) {
      const data::Instance& x = train.instances[idx];
      const util::Matrix& probs = model_->ForwardTrain(x, rng);
      util::Matrix grad_probs(probs.rows(), probs.cols());
      for (const crowd::AnnotatorLabels& e :
           annotations.instance(idx).entries) {
        for (int t = 0; t < probs.rows(); ++t) {
          p_item.assign(probs.Row(t), probs.Row(t) + k);
          AnnotatorForward(e.annotator, p_item, &scores_j);
          util::Vector grad_p(k, 0.0f);
          AnnotatorBackward(e.annotator, p_item, scores_j, e.labels[t],
                            &grad_p);
          float* gp_row = grad_probs.Row(t);
          for (int m = 0; m < k; ++m) gp_row[m] += grad_p[m];
        }
      }
      model_->BackwardProbGrad(grad_probs, 1.0f);
      if (++in_batch == config_.batch_size) {
        optimizer->Step(all_params);
        in_batch = 0;
      }
    }
    if (in_batch > 0) optimizer->Step(all_params);
    if (stopper.Update(eval::DevScore(*model_, dev), all_params)) break;
  }
  stopper.Restore(all_params);
  result.best_dev_score = stopper.best_score();
  result.best_epoch = stopper.best_epoch();
  return result;
}

std::vector<util::Matrix> CrowdLayer::TrainPosteriors(
    const data::Dataset& train) const {
  std::vector<util::Matrix> out;
  out.reserve(train.size());
  for (const data::Instance& x : train.instances) {
    out.push_back(model_->Predict(x));
  }
  return out;
}

}  // namespace lncl::baselines
