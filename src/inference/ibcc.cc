#include "inference/ibcc.h"

namespace lncl::inference {

std::vector<util::Matrix> Ibcc::Infer(
    const crowd::AnnotationSet& annotations,
    const std::vector<int>& items_per_instance, util::Rng*) const {
  DawidSkene::Options ds_options;
  ds_options.max_iters = options_.max_iters;
  ds_options.smoothing = options_.smoothing;
  DawidSkene ds(ds_options);
  const ItemView view = FlattenItems(annotations, items_per_instance);
  util::Parallelizer exec(util::HardwareThreads());
  return UnflattenPosteriors(
      view, ds.Run(view, options_.diag_pseudo, nullptr, &exec));
}

}  // namespace lncl::inference
