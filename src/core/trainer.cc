#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace lncl::core {

namespace {

// splitmix64 finalizer; decorrelates per-instance dropout seeds.
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

double RunMinibatchEpochSharded(const data::Dataset& dataset,
                                const std::vector<util::Matrix>& targets,
                                const std::vector<float>& weights,
                                int batch_size, models::Model* master,
                                const std::vector<models::Model*>& slot_models,
                                nn::Optimizer* optimizer, util::Rng* rng,
                                util::Parallelizer* exec) {
  constexpr int kSlots = util::Parallelizer::kSlots;
  LNCL_DCHECK(static_cast<int>(targets.size()) == dataset.size());
  LNCL_DCHECK(!slot_models.empty() && slot_models[0] == master);
  LNCL_DCHECK(static_cast<int>(slot_models.size()) <= kSlots);
  const int n = dataset.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  const uint64_t epoch_seed = rng->engine()();

  // Worker w trains slot_models[w] on slots w, w + workers, ...; worker 0
  // is the master, so a one-thread epoch touches no replica at all.
  const int workers =
      std::min(exec->num_threads(), static_cast<int>(slot_models.size()));
  std::vector<std::vector<nn::Parameter*>> worker_params(workers);
  for (int w = 0; w < workers; ++w) {
    worker_params[w] = slot_models[w]->Params();
    LNCL_DCHECK(worker_params[w].size() == worker_params[0].size());
  }
  const std::vector<nn::Parameter*>& master_params = worker_params[0];
  // One gradient buffer set per slot, swapped into the running worker's
  // Parameter::grad for the slot's instances, so every slot sums its own
  // instances from zero whichever worker runs it.
  std::vector<std::vector<util::Matrix>> slot_grads(kSlots);
  for (std::vector<util::Matrix>& grads : slot_grads) {
    for (const nn::Parameter* p : master_params) {
      grads.emplace_back(p->grad.rows(), p->grad.cols());
    }
  }
  const auto swap_grads = [](const std::vector<nn::Parameter*>& params,
                             std::vector<util::Matrix>* grads) {
    for (size_t p = 0; p < params.size(); ++p) {
      std::swap(params[p]->grad, (*grads)[p]);
    }
  };
  const auto sync_workers = [&] {
    for (int w = 1; w < workers; ++w) {
      for (size_t p = 0; p < master_params.size(); ++p) {
        worker_params[w][p]->value = master_params[p]->value;
      }
    }
  };
  // Worker replicas may be stale (previous epoch's last step, or an
  // early-stopping restore into the master).
  sync_workers();

  double total_loss = 0.0;
  for (int start = 0; start < n; start += batch_size) {
    LNCL_TRACE_SPAN_ARG("minibatch", "start", start);
    const int len = std::min(batch_size, n - start);
    double slot_loss[kSlots] = {0.0};
    exec->RunSlots(workers, [&](int w) {
      models::Model* m = slot_models[w];
      const std::vector<nn::Parameter*>& params = worker_params[w];
      for (int s = w; s < kSlots; s += workers) {
        LNCL_TRACE_SPAN_ARG("m_step_shard", "slot", s);
        swap_grads(params, &slot_grads[s]);
        const auto [b, e] = util::Parallelizer::SlotRange(len, s, kSlots);
        for (int i = b; i < e; ++i) {
          const int pos = start + i;  // position in the shuffled epoch order
          const int idx = order[pos];
          // Dropout stream keyed by (epoch seed, position): the sampled
          // masks are a pure function of the epoch, not of execution order.
          util::Rng inst_rng(Mix64(epoch_seed ^ static_cast<uint64_t>(pos)));
          const float weight = weights.empty() ? 1.0f : weights[idx];
          m->ForwardTrain(dataset.instances[idx], &inst_rng);
          slot_loss[s] += m->BackwardSoftTarget(targets[idx], weight);
        }
        swap_grads(params, &slot_grads[s]);
      }
    });
    // Fixed-order reduction: losses and gradients merge in slot index order
    // no matter which worker ran which slot. The master takes slot 0's sums
    // (leaving its zeroed gradient as slot 0's next buffer) and adds the
    // other slots to them.
    for (int s = 0; s < kSlots; ++s) total_loss += slot_loss[s];
    for (size_t p = 0; p < master_params.size(); ++p) {
      util::Matrix& grad = master_params[p]->grad;
      std::swap(grad, slot_grads[0][p]);
      for (int s = 1; s < kSlots; ++s) {
        grad.AddScaled(slot_grads[s][p], 1.0f);
        slot_grads[s][p].Zero();
      }
    }
    optimizer->Step(master_params);
    sync_workers();
  }
  return n > 0 ? total_loss / n : 0.0;
}

util::Matrix ComputeQa(const util::Matrix& probs,
                       const crowd::InstanceAnnotations& annotations,
                       const std::vector<util::Matrix>& log_confusions) {
  const int items = probs.rows();
  const int k = probs.cols();
  util::Matrix qa(items, k);
  float* const out = qa.data();
  for (int t = 0; t < items; ++t) {
    const float* const p = probs.Row(t);
    // The log-space sum builds in the output row, which is then
    // exponentiated and normalized in place.
    float* const q = out + static_cast<size_t>(t) * k;
    for (int m = 0; m < k; ++m) {
      q[m] = static_cast<float>(
          std::log(std::max(static_cast<double>(p[m]), 1e-300)));
    }
    for (const crowd::AnnotatorLabels& e : annotations.entries) {
      const float* const row = log_confusions[e.annotator].Row(e.labels[t]);
      for (int m = 0; m < k; ++m) q[m] += row[m];
    }
    const double sum = crowd::ExpShifted(q, k);
    const float inv = static_cast<float>(1.0 / sum);
    for (int m = 0; m < k; ++m) q[m] *= inv;
  }
  // Eq. 13: the truth posterior is a distribution per item.
  LNCL_AUDIT_SIMPLEX(qa);
  return qa;
}

void UpdateConfusions(const std::vector<util::Matrix>& qf,
                      const crowd::AnnotationSet& annotations,
                      double smoothing, crowd::ConfusionSet* confusions,
                      util::Parallelizer* exec) {
  const int k = annotations.num_classes();
  const int num_annotators = annotations.num_annotators();
  if (confusions->size() != static_cast<size_t>(num_annotators)) {
    confusions->assign(num_annotators, crowd::ConfusionMatrix(k, 0.7));
  }
  // Per-slot count tables over a fixed static partition of the instances,
  // merged in slot order.
  constexpr int kSlots = util::Parallelizer::kSlots;
  std::vector<crowd::ConfusionCounts> acc(
      kSlots, crowd::ConfusionCounts(num_annotators, k));
  exec->RunSlots(kSlots, [&](int s) {
    LNCL_TRACE_SPAN_ARG("confusion_shard", "slot", s);
    const auto [b, e_end] = util::Parallelizer::SlotRange(
        annotations.num_instances(), s, kSlots);
    for (int i = b; i < e_end; ++i) {
      const util::Matrix& q = qf[i];
      LNCL_DCHECK(q.cols() == k);
      for (const crowd::AnnotatorLabels& e : annotations.instance(i).entries) {
        LNCL_DCHECK(static_cast<int>(e.labels.size()) <= q.rows());
        for (size_t t = 0; t < e.labels.size(); ++t) {
          const int y = e.labels[t];
          LNCL_DCHECK(y >= 0 && y < k);
          acc[s].Add(e.annotator, y, q.Row(static_cast<int>(t)));
        }
      }
    }
  });
  crowd::ConfusionCounts total(num_annotators, k);
  for (const crowd::ConfusionCounts& slot : acc) total.AddCounts(slot);
  // NormalizeRows audits each matrix row-stochastic (Eq. 12).
  total.ToConfusions(confusions, 0.0, smoothing);
}

bool EarlyStopper::Update(double score,
                          const std::vector<nn::Parameter*>& params) {
  ++epoch_;
  if (score > best_score_) {
    best_score_ = score;
    best_epoch_ = epoch_ - 1;
    since_best_ = 0;
    snapshot_ = nn::SnapshotValues(params);
    return false;
  }
  return ++since_best_ >= patience_;
}

void EarlyStopper::Restore(const std::vector<nn::Parameter*>& params) const {
  if (!snapshot_.empty()) nn::RestoreValues(snapshot_, params);
}

std::vector<float> AnnotatorCountWeights(const crowd::AnnotationSet& ann) {
  std::vector<float> weights(ann.num_instances());
  for (int i = 0; i < ann.num_instances(); ++i) {
    weights[i] = static_cast<float>(ann.NumAnnotators(i));
  }
  return weights;
}

}  // namespace lncl::core
