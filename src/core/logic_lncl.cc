#include "core/logic_lncl.h"

#include <algorithm>
#include <cmath>

#include "eval/metrics.h"
#include "inference/truth_inference.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/run_log.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace lncl::core {

namespace {

// Read-only projection diagnostics (Eq. 15) for the run observer: KL(q_a‖q_b)
// summed over projected rows, and how many rows kept their argmax through the
// projection. Accumulated per Parallelizer slot and merged in slot order, so
// the reported means are identical for every threads setting.
struct ProjectionStats {
  double kl_sum = 0.0;
  int64_t rows = 0;
  int64_t argmax_kept = 0;

  void Accumulate(const util::Matrix& qa, const util::Matrix& qb) {
    for (int t = 0; t < qa.rows(); ++t) {
      double kl = 0.0;
      int arg_a = 0;
      int arg_b = 0;
      for (int c = 0; c < qa.cols(); ++c) {
        const double a = qa(t, c);
        const double b = qb(t, c);
        if (a > 0.0) kl += a * std::log(a / std::max(b, 1e-12));
        if (qa(t, c) > qa(t, arg_a)) arg_a = c;
        if (qb(t, c) > qb(t, arg_b)) arg_b = c;
      }
      kl_sum += std::max(0.0, kl);
      ++rows;
      if (arg_a == arg_b) ++argmax_kept;
    }
  }

  void Merge(const ProjectionStats& other) {
    kl_sum += other.kl_sum;
    rows += other.rows;
    argmax_kept += other.argmax_kept;
  }
};

}  // namespace

KSchedule SentimentKSchedule() {
  return [](int epoch) {
    return std::min(1.0, 1.0 - std::pow(0.94, static_cast<double>(epoch + 1)));
  };
}

KSchedule NerKSchedule() {
  return [](int epoch) {
    return std::min(0.8, 1.0 - std::pow(0.90, static_cast<double>(epoch + 1)));
  };
}

KSchedule ConstantK(double k) {
  return [k](int) { return k; };
}

LogicLncl::LogicLncl(LogicLnclConfig config, models::ModelFactory factory,
                     const logic::RuleProjector* projector)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      projector_(projector) {
  if (!config_.k_schedule) config_.k_schedule = ConstantK(0.0);
}

LogicLncl::LogicLncl(LogicLnclConfig config,
                     std::unique_ptr<models::Model> model,
                     const logic::RuleProjector* projector,
                     models::ModelFactory replica_factory)
    : config_(std::move(config)),
      factory_(std::move(replica_factory)),
      projector_(projector) {
  if (!config_.k_schedule) config_.k_schedule = ConstantK(0.0);
  model_ = std::move(model);
}

LogicLnclResult LogicLncl::Fit(const data::Dataset& train,
                               const crowd::AnnotationSet& annotations,
                               const data::Dataset& dev, util::Rng* rng) {
  return FitInternal(train, annotations, {}, dev, rng);
}

LogicLnclResult LogicLncl::FitSemiSupervised(
    const data::Dataset& train, const crowd::AnnotationSet& annotations,
    const std::vector<int>& gold_indices, const data::Dataset& dev,
    util::Rng* rng) {
  return FitInternal(train, annotations, gold_indices, dev, rng);
}

LogicLnclResult LogicLncl::FitInternal(const data::Dataset& train,
                                       const crowd::AnnotationSet& annotations,
                                       const std::vector<int>& gold_indices,
                                       const data::Dataset& dev,
                                       util::Rng* rng) {
  LogicLnclResult result;
  if (!model_) model_ = factory_(rng);
  std::unique_ptr<nn::Optimizer> optimizer =
      nn::MakeOptimizer(config_.optimizer);
  const std::vector<nn::Parameter*> params = model_->Params();

  // Deterministic parallel execution: a fixed slot structure makes every
  // reduction order independent of the thread count, so every threads
  // setting produces bit-identical results.
  util::Parallelizer exec(config_.threads);
  // Training workers: the master plus, when a factory can build them, one
  // replica per further thread. Replica initial weights are irrelevant
  // (values are synced from the master); a fixed-seed throwaway rng keeps
  // the caller's stream untouched.
  std::vector<std::unique_ptr<models::Model>> replicas;
  std::vector<models::Model*> slot_models = {model_.get()};
  util::Rng replica_rng(0x51ced0c5u);
  const int workers =
      factory_ ? std::min(config_.threads, util::Parallelizer::kSlots) : 1;
  for (int w = 1; w < workers; ++w) {
    replicas.push_back(factory_(&replica_rng));
    slot_models.push_back(replicas.back().get());
  }

  // Line 1 of Algorithm 1: initialize q_f with Majority Voting.
  qf_ = annotations.MajorityVote(inference::ItemsPerInstance(train));
  confusions_.clear();

  // Semi-supervised anchors: one-hot gold targets that the E-step preserves.
  auto anchor = [&]() {
    for (int idx : gold_indices) {
      util::Matrix& q = qf_[idx];
      q.Zero();
      for (int t = 0; t < q.rows(); ++t) {
        q(t, train.ItemLabel(idx, t)) = 1.0f;
      }
    }
  };
  anchor();

  const std::vector<float> weights =
      config_.weighted_loss ? AnnotatorCountWeights(annotations)
                            : std::vector<float>();

  EarlyStopper stopper(config_.patience);
  std::vector<util::Matrix> best_qf = qf_;
  crowd::ConfusionSet best_confusions;

  // Telemetry (src/obs): PhaseSpan both accumulates PhaseSeconds and, when
  // tracing is active, emits one trace event per phase; the observer (if
  // any) gets one EpochRecord per epoch. All of it only reads trainer state,
  // so an instrumented run is bit-identical to a plain one.
  obs::RunObserver* const observer = config_.run_observer;
  const bool observe = observer != nullptr;
  crowd::ConfusionSet prev_confusions;  // observer-only drift baseline
  std::vector<std::pair<std::string, uint64_t>> prev_counters;
  if (observe && obs::Metrics::enabled()) {
    prev_counters = obs::Metrics::CounterTotals();
  }

  {
    obs::PhaseSpan fit_span("fit", &result.phase_seconds.total);
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
      LNCL_TRACE_SPAN_ARG("epoch", "epoch", epoch);
      const PhaseSeconds phases_before = result.phase_seconds;
      nn::ApplyLrSchedule(config_.optimizer, epoch, optimizer.get());

      // ---- Pseudo-M-step: network (Eq. 8/10/11), then annotators (Eq. 12).
      double loss = 0.0;
      {
        obs::PhaseSpan span("m_step", &result.phase_seconds.m_step);
        loss = RunMinibatchEpochSharded(train, qf_, weights,
                                        config_.batch_size, model_.get(),
                                        slot_models, optimizer.get(), rng,
                                        &exec);
      }
      result.loss_curve.push_back(loss);
      {
        obs::PhaseSpan span("confusion", &result.phase_seconds.confusion);
        UpdateConfusions(qf_, annotations, config_.confusion_smoothing,
                         &confusions_, &exec);
      }

      // ---- Pseudo-E-step: q_a (Eq. 13), q_b (Eq. 15), q_f (Eq. 9).
      // Instances are independent (each slot writes only its own qf_ rows),
      // so the parallel sweep is deterministic regardless of slot structure.
      const double k = config_.k_schedule(epoch);
      const bool project =
          projector_ != nullptr && config_.use_rules_in_training && k > 0.0;
      // Hoisted likelihood logs: once per annotator per epoch rather than
      // once per labeled instance.
      const std::vector<util::Matrix> log_pi = LogConfusions(confusions_);
      std::vector<ProjectionStats> slot_stats(util::Parallelizer::kSlots);
      {
        obs::PhaseSpan span("e_step", &result.phase_seconds.e_step);
        exec.RunSlots(util::Parallelizer::kSlots, [&](int slot) {
          LNCL_TRACE_SPAN_ARG("e_step_shard", "slot", slot);
          const auto [begin, end] = util::Parallelizer::SlotRange(
              train.size(), slot, util::Parallelizer::kSlots);
          if (obs::Metrics::enabled() && end > begin) {
            static obs::Counter* const instances =
                obs::Metrics::GetCounter("e_step.instances");
            instances->Add(static_cast<uint64_t>(end - begin));
          }
          // One body per chunk of the slot: predict, Eq. 13, project
          // (Eq. 15), blend (Eq. 9). A chunk is the whole slot, or one
          // instance when batch_predict is off; a prediction or projection
          // never depends on its chunk-mates, so both give the same q_f.
          const int chunk = config_.batch_predict ? end - begin : 1;
          std::vector<const data::Instance*> xs;
          std::vector<util::Matrix> probs;
          for (int lo = begin; lo < end; lo += chunk) {
            const int hi = std::min(end, lo + chunk);
            xs.clear();
            for (int i = lo; i < hi; ++i) xs.push_back(&train.instances[i]);
            model_->PredictBatch(xs, &probs);
            std::vector<util::Matrix> qa(xs.size());
            for (int i = lo; i < hi; ++i) {
              qa[i - lo] =
                  ComputeQa(probs[i - lo], annotations.instance(i), log_pi);
            }
            if (project) {
              // ProjectBatch rewrites in place, so q_a is copied to blend
              // below.
              std::vector<util::Matrix> qb = qa;
              projector_->ProjectBatch(xs, &qb, config_.C);
              for (size_t j = 0; j < qa.size(); ++j) {
                if (observe) slot_stats[slot].Accumulate(qa[j], qb[j]);
                LNCL_DCHECK(qb[j].rows() == qa[j].rows() &&
                            qb[j].cols() == qa[j].cols());
                float* const a = qa[j].data();
                const float* const b = qb[j].data();
                for (size_t e = 0; e < qa[j].size(); ++e) {
                  a[e] = static_cast<float>((1.0 - k) * a[e] + k * b[e]);
                }
              }
            }
            // Eq. 9 blend of two simplexes stays a simplex.
            for (const util::Matrix& q : qa) LNCL_AUDIT_SIMPLEX(q);
            for (int i = lo; i < hi; ++i) qf_[i] = std::move(qa[i - lo]);
          }
        });
        anchor();
      }

      // ---- Model selection on dev.
      double dev_score = 0.0;
      {
        obs::PhaseSpan span("dev_eval", &result.phase_seconds.dev_eval);
        dev_score = eval::DevScore(*model_, dev);
      }
      result.dev_curve.push_back(dev_score);
      const int prev_best = stopper.best_epoch();
      const bool stop = stopper.Update(dev_score, params);
      if (stopper.best_epoch() != prev_best) {
        best_qf = qf_;
        best_confusions = confusions_;
      }
      LNCL_LOG(Debug) << "epoch " << epoch << " loss " << loss << " dev "
                      << dev_score << " k " << k;
      if (observe) {
        obs::EpochRecord rec;
        rec.epoch = epoch;
        rec.k = k;
        rec.loss = loss;
        rec.dev_score = dev_score;
        rec.is_best = stopper.best_epoch() != prev_best;
        ProjectionStats stats;  // fixed slot-order merge
        for (const ProjectionStats& s : slot_stats) stats.Merge(s);
        rec.projected_items = stats.rows;
        if (stats.rows > 0) {
          rec.mean_kl_qa_qb = stats.kl_sum / static_cast<double>(stats.rows);
          rec.rule_satisfaction = static_cast<double>(stats.argmax_kept) /
                                  static_cast<double>(stats.rows);
        }
        double diag = 0.0;
        double drift = 0.0;
        for (size_t a = 0; a < confusions_.size(); ++a) {
          diag += confusions_[a].Reliability();
          if (prev_confusions.size() == confusions_.size()) {
            drift += confusions_[a].Distance(prev_confusions[a]);
          }
        }
        if (!confusions_.empty()) {
          const double n = static_cast<double>(confusions_.size());
          rec.confusion_diag_mass = diag / n;
          rec.confusion_drift = drift / n;
        }
        prev_confusions = confusions_;
        rec.m_step_seconds = result.phase_seconds.m_step - phases_before.m_step;
        rec.confusion_seconds =
            result.phase_seconds.confusion - phases_before.confusion;
        rec.e_step_seconds = result.phase_seconds.e_step - phases_before.e_step;
        rec.dev_eval_seconds =
            result.phase_seconds.dev_eval - phases_before.dev_eval;
        if (rec.e_step_seconds > 0.0) {
          rec.e_step_instances_per_second =
              static_cast<double>(train.size()) / rec.e_step_seconds;
        }
        if (obs::Metrics::enabled()) {
          std::vector<std::pair<std::string, uint64_t>> now =
              obs::Metrics::CounterTotals();
          // Both snapshots are sorted by name; counters registered mid-epoch
          // simply have no `before` entry (delta = total).
          size_t pi = 0;
          for (const auto& [metric_name, total] : now) {
            while (pi < prev_counters.size() &&
                   prev_counters[pi].first < metric_name) {
              ++pi;
            }
            uint64_t before_total = 0;
            if (pi < prev_counters.size() &&
                prev_counters[pi].first == metric_name) {
              before_total = prev_counters[pi].second;
            }
            if (total > before_total) {
              rec.metric_deltas.emplace_back(metric_name,
                                             total - before_total);
            }
          }
          prev_counters = std::move(now);
        }
        observer->OnEpoch(rec);
      }
      if (stop) break;
    }

    stopper.Restore(params);
    if (!best_confusions.empty()) {
      qf_ = std::move(best_qf);
      confusions_ = std::move(best_confusions);
    }
  }
  result.best_dev_score = stopper.best_score();
  result.best_epoch = stopper.best_epoch();
  result.epochs_run = stopper.epochs_seen();
  result.early_stopped = result.epochs_run < config_.epochs;
  if (observe) {
    obs::FitSummary summary;
    summary.best_epoch = result.best_epoch;
    summary.epochs_run = result.epochs_run;
    summary.early_stopped = result.early_stopped;
    summary.best_dev_score = result.best_dev_score;
    observer->OnFitEnd(summary);
  }
  return result;
}

void LogicLncl::SaveModel(std::ostream& os) const {
  LNCL_CHECK(model_ != nullptr);
  nn::SaveParams(os, const_cast<models::Model*>(model_.get())->Params());
}

bool LogicLncl::LoadModel(std::istream& is) {
  if (model_ == nullptr) return false;
  return nn::LoadParams(is, model_->Params());
}

util::Matrix LogicLncl::PredictStudent(const data::Instance& x) const {
  return model_->Predict(x);
}

util::Matrix LogicLncl::PredictTeacher(const data::Instance& x) const {
  util::Matrix probs = model_->Predict(x);
  if (projector_ == nullptr) return probs;
  return projector_->Project(x, probs, config_.C);
}

std::vector<util::Matrix> LogicLncl::PredictStudentBatch(
    const data::Dataset& dataset) const {
  // quantized_predict applies only to these batched serving entries — the
  // E-step and training always see the fp32 model. The toggle requantizes
  // eagerly (once per call, single-threaded here) and is reset before
  // returning so later Fit/Predict calls are untouched.
  LNCL_TRACE_SPAN_ARG("serve_batch", "quantized",
                      config_.quantized_predict ? 1 : 0);
  if (config_.quantized_predict) model_->SetQuantizedPredict(true);
  std::vector<util::Matrix> probs = model_->PredictBatch(dataset);
  if (config_.quantized_predict) model_->SetQuantizedPredict(false);
  return probs;
}

std::vector<util::Matrix> LogicLncl::PredictTeacherBatch(
    const data::Dataset& dataset) const {
  std::vector<const data::Instance*> xs;
  xs.reserve(dataset.instances.size());
  for (const data::Instance& x : dataset.instances) xs.push_back(&x);
  std::vector<util::Matrix> probs;
  LNCL_TRACE_SPAN_ARG("serve_batch", "quantized",
                      config_.quantized_predict ? 1 : 0);
  if (config_.quantized_predict) model_->SetQuantizedPredict(true);
  model_->PredictBatch(xs, &probs);
  if (config_.quantized_predict) model_->SetQuantizedPredict(false);
  if (projector_ != nullptr) projector_->ProjectBatch(xs, &probs, config_.C);
  return probs;
}

}  // namespace lncl::core
