#include "baselines/dl_dn.h"

#include <algorithm>


#include "core/trainer.h"
#include "eval/metrics.h"
#include "inference/truth_inference.h"
#include "util/check.h"

namespace lncl::baselines {

void DlDn::Fit(const data::Dataset& train,
               const crowd::AnnotationSet& annotations,
               const data::Dataset& dev, util::Rng* rng) {
  networks_.clear();
  dev_weight_.clear();
  // Targets are one-hot rows of every entry's labels, one per item of the
  // annotator's sub-dataset: refuse a crowd that does not fit the split.
  annotations.CheckEntries(inference::ItemsPerInstance(train));
  LNCL_CHECK(annotations.num_classes() == train.num_classes);

  // Per-annotator sub-datasets with hard targets from that annotator.
  const int num_annotators = annotations.num_annotators();
  std::vector<data::Dataset> sub(num_annotators);
  std::vector<std::vector<util::Matrix>> sub_targets(num_annotators);
  for (int j = 0; j < num_annotators; ++j) {
    sub[j].num_classes = train.num_classes;
    sub[j].sequence = train.sequence;
  }
  for (int i = 0; i < annotations.num_instances(); ++i) {
    for (const crowd::AnnotatorLabels& e : annotations.instance(i).entries) {
      sub[e.annotator].instances.push_back(train.instances[i]);
      util::Matrix t(static_cast<int>(e.labels.size()), train.num_classes);
      for (size_t item = 0; item < e.labels.size(); ++item) {
        t(static_cast<int>(item), e.labels[item]) = 1.0f;
      }
      sub_targets[e.annotator].push_back(std::move(t));
    }
  }

  util::Parallelizer exec;
  for (int j = 0; j < num_annotators; ++j) {
    if (sub[j].size() < config_.min_instances) continue;
    std::unique_ptr<models::Model> net = factory_(rng);
    std::unique_ptr<nn::Optimizer> optimizer =
        nn::MakeOptimizer(config_.optimizer);
    const std::vector<nn::Parameter*> params = net->Params();
    core::EarlyStopper stopper(config_.patience);
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
      core::RunMinibatchEpochSharded(sub[j], sub_targets[j], {},
                                     config_.batch_size, net.get(),
                                     {net.get()}, optimizer.get(), rng, &exec);
      if (stopper.Update(eval::DevScore(*net, dev), params)) break;
    }
    stopper.Restore(params);
    networks_.push_back(std::move(net));
    const double dev_score = std::max(0.0, stopper.best_score());
    dev_weight_.push_back(dev_score * dev_score);
  }
}

util::Matrix DlDn::Ensemble(const data::Instance& x,
                            const std::vector<double>& weights) const {
  LNCL_DCHECK(!networks_.empty());
  util::Matrix sum;
  double total_w = 0.0;
  for (size_t n = 0; n < networks_.size(); ++n) {
    const util::Matrix p = networks_[n]->Predict(x);
    const double w = weights.empty() ? 1.0 : weights[n];
    if (sum.rows() == 0) sum.Resize(p.rows(), p.cols());
    sum.AddScaled(p, static_cast<float>(w));
    total_w += w;
  }
  if (total_w > 0.0) sum.Scale(static_cast<float>(1.0 / total_w));
  return sum;
}

util::Matrix DlDn::Predict(const data::Instance& x) const {
  return Ensemble(x, {});
}

util::Matrix DlDn::PredictWeighted(const data::Instance& x) const {
  return Ensemble(x, dev_weight_);
}

}  // namespace lncl::baselines
