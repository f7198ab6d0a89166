#include "baselines/two_stage.h"

#include "core/trainer.h"
#include "eval/metrics.h"

namespace lncl::baselines {

std::vector<util::Matrix> GoldTargets(const data::Dataset& dataset) {
  std::vector<util::Matrix> targets;
  targets.reserve(dataset.size());
  for (int i = 0; i < dataset.size(); ++i) {
    util::Matrix t(dataset.NumItems(i), dataset.num_classes);
    for (int item = 0; item < dataset.NumItems(i); ++item) {
      t(item, dataset.ItemLabel(i, item)) = 1.0f;
    }
    targets.push_back(std::move(t));
  }
  return targets;
}

std::vector<util::Matrix> HardenTargets(
    const std::vector<util::Matrix>& posteriors) {
  std::vector<util::Matrix> targets;
  targets.reserve(posteriors.size());
  for (const util::Matrix& q : posteriors) {
    util::Matrix t(q.rows(), q.cols());
    const std::vector<int> winners = eval::ArgmaxRows(q);
    for (int r = 0; r < q.rows(); ++r) t(r, winners[r]) = 1.0f;
    targets.push_back(std::move(t));
  }
  return targets;
}

TwoStageResult TwoStage::Fit(const data::Dataset& train,
                             const crowd::AnnotationSet& annotations,
                             const inference::TruthInference& inference,
                             const data::Dataset& dev, util::Rng* rng) {
  std::vector<util::Matrix> posteriors = inference.Infer(
      annotations, inference::ItemsPerInstance(train), rng);
  TwoStageResult result = FitOnTargets(
      train, config_.hard_labels ? HardenTargets(posteriors) : posteriors, dev,
      rng);
  result.posteriors = std::move(posteriors);
  return result;
}

TwoStageResult TwoStage::FitOnTargets(const data::Dataset& train,
                                      const std::vector<util::Matrix>& targets,
                                      const data::Dataset& dev,
                                      util::Rng* rng) {
  TwoStageResult result;
  model_ = factory_(rng);
  std::unique_ptr<nn::Optimizer> optimizer =
      nn::MakeOptimizer(config_.optimizer);
  const std::vector<nn::Parameter*> params = model_->Params();

  util::Parallelizer exec;
  core::EarlyStopper stopper(config_.patience);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    nn::ApplyLrSchedule(config_.optimizer, epoch, optimizer.get());
    core::RunMinibatchEpochSharded(train, targets, {}, config_.batch_size,
                                   model_.get(), {model_.get()},
                                   optimizer.get(), rng, &exec);
    if (stopper.Update(eval::DevScore(*model_, dev), params)) break;
  }
  stopper.Restore(params);
  result.best_dev_score = stopper.best_score();
  result.best_epoch = stopper.best_epoch();
  return result;
}

}  // namespace lncl::baselines
