#include "models/model.h"

#include <algorithm>
#include <map>

#include "obs/metrics.h"

namespace lncl::models {

util::Matrix Model::Predict(const data::Instance& x) const {
  std::vector<util::Matrix> out;
  PredictBatch({&x}, &out);
  return std::move(out[0]);
}

std::vector<util::Matrix> Model::PredictBatch(
    const data::Dataset& dataset) const {
  std::vector<const data::Instance*> xs;
  xs.reserve(dataset.instances.size());
  for (const data::Instance& x : dataset.instances) xs.push_back(&x);
  std::vector<util::Matrix> out;
  PredictBatch(xs, &out);
  return out;
}

std::vector<LengthBucket> BucketByLength(
    const std::vector<const data::Instance*>& xs) {
  std::map<int, std::vector<int>> by_length;
  for (size_t i = 0; i < xs.size(); ++i) {
    by_length[static_cast<int>(xs[i]->tokens.size())].push_back(
        static_cast<int>(i));
  }
  std::vector<LengthBucket> buckets;
  for (auto& [length, members] : by_length) {
    for (size_t at = 0; at < members.size(); at += kMaxPredictBatch) {
      LengthBucket b;
      b.length = length;
      const size_t end = std::min(members.size(),
                                  at + static_cast<size_t>(kMaxPredictBatch));
      b.members.assign(members.begin() + static_cast<long>(at),
                       members.begin() + static_cast<long>(end));
      buckets.push_back(std::move(b));
    }
  }
  if (obs::Metrics::enabled()) {
    // Packing efficiency of the batched prediction path: how full the
    // equal-length [B, L] blocks actually run (cap kMaxPredictBatch = 64).
    static obs::Histogram* const occupancy = obs::Metrics::GetHistogram(
        "predict_batch.bucket_occupancy", {1, 2, 4, 8, 16, 32, 64});
    static obs::Counter* const instances =
        obs::Metrics::GetCounter("predict_batch.instances");
    for (const LengthBucket& b : buckets) {
      occupancy->Observe(static_cast<double>(b.members.size()));
    }
    instances->Add(xs.size());
  }
  return buckets;
}

}  // namespace lncl::models
