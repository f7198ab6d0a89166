#include "baselines/fixed_target.h"

#include "core/trainer.h"
#include "eval/metrics.h"

namespace lncl::baselines {

FixedTargetResult FixedTargetTrainer::Fit(
    const data::Dataset& train, const std::vector<util::Matrix>& q_base,
    const data::Dataset& dev, util::Rng* rng) {
  FixedTargetResult result;
  if (!model_) model_ = factory_(rng);
  std::unique_ptr<nn::Optimizer> optimizer =
      nn::MakeOptimizer(config_.optimizer);
  const std::vector<nn::Parameter*> params = model_->Params();

  util::Parallelizer exec;
  core::EarlyStopper stopper(config_.patience);
  std::vector<util::Matrix> qf = q_base;
  std::vector<util::Matrix> best_qf = qf;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    nn::ApplyLrSchedule(config_.optimizer, epoch, optimizer.get());
    const double k = config_.k_schedule(epoch);
    if (projector_ != nullptr && k > 0.0) {
      for (int i = 0; i < train.size(); ++i) {
        const util::Matrix qb =
            projector_->Project(train.instances[i], q_base[i], config_.C);
        util::Matrix blended(qb.rows(), qb.cols());
        for (int t = 0; t < qb.rows(); ++t) {
          for (int c = 0; c < qb.cols(); ++c) {
            blended(t, c) = static_cast<float>((1.0 - k) * q_base[i](t, c) +
                                               k * qb(t, c));
          }
        }
        qf[i] = std::move(blended);
      }
    }
    core::RunMinibatchEpochSharded(train, qf, {}, config_.batch_size,
                                   model_.get(), {model_.get()},
                                   optimizer.get(), rng, &exec);
    const int prev_best = stopper.best_epoch();
    const bool stop = stopper.Update(eval::DevScore(*model_, dev), params);
    if (stopper.best_epoch() != prev_best) best_qf = qf;
    if (stop) break;
  }
  stopper.Restore(params);
  result.best_dev_score = stopper.best_score();
  result.best_epoch = stopper.best_epoch();
  result.qf = std::move(best_qf);
  return result;
}

}  // namespace lncl::baselines
