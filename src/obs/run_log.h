#pragma once

// Structured per-epoch run logs for the EM-alike loop (Algorithm 1).
//
// LogicLnclConfig carries an optional RunObserver*; when set, Fit /
// FitSemiSupervised deliver one EpochRecord per epoch — loss, dev score,
// k(t), mean KL(q_a‖q_b), rule satisfaction, confusion diagonal mass and
// drift, per-epoch phase seconds, E-step throughput, and metric deltas —
// plus one FitSummary when the loop ends. Everything in a record is either
// already computed by the trainer or derived read-only from it, so an
// observed fit is bit-identical to an unobserved one (the extra KL /
// satisfaction sweeps only read q_a/q_b; they are skipped entirely when no
// observer is attached, which is the null-sink default).
//
// JsonlRunLogger is the stock observer: one JSON object per line
// (schema "lncl.em_run.v1"), consumable by tools/prof_report.py --runlog,
// the bench harness, and tests (tests/obs_test.cc golden-schema check). Loggers
// flush after every line and register themselves process-wide so
// FlushRunLogs() — called by util::CheckFailure on the abort path — can
// drain whatever an interrupted fit managed to log; a crashed run always
// leaves an inspectable JSONL tail.

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace lncl::obs {

// One epoch of an EM run, as delivered to RunObserver::OnEpoch.
struct EpochRecord {
  int epoch = 0;       // 0-based epoch index
  double k = 0.0;      // imitation strength k(t) this epoch
  double loss = 0.0;   // mean training loss (M-step)
  double dev_score = 0.0;
  bool is_best = false;  // this epoch became the early-stopping best

  // Projection diagnostics (Eq. 15). KL is the mean over projected items of
  // KL(q_a‖q_b); rule_satisfaction is the fraction of projected items whose
  // argmax the projection left unchanged (1.0 when nothing was projected —
  // check projected_items to distinguish "all satisfied" from "no rules").
  double mean_kl_qa_qb = 0.0;
  double rule_satisfaction = 1.0;
  int64_t projected_items = 0;

  // Annotator-model diagnostics (Eq. 12): mean confusion diagonal mass over
  // annotators, and mean Frobenius distance to the previous epoch's
  // confusions (0 on the first epoch).
  double confusion_diag_mass = 0.0;
  double confusion_drift = 0.0;

  // This epoch's share of each Fit phase (seconds), and the E-step's
  // resulting instance throughput.
  double m_step_seconds = 0.0;
  double confusion_seconds = 0.0;
  double e_step_seconds = 0.0;
  double dev_eval_seconds = 0.0;
  double e_step_instances_per_second = 0.0;

  // Per-epoch deltas of every obs::Metrics counter (sorted by name). Empty
  // unless the metrics registry is enabled.
  std::vector<std::pair<std::string, uint64_t>> metric_deltas;
};

// End-of-fit summary, delivered once after the epoch loop.
struct FitSummary {
  int best_epoch = -1;
  int epochs_run = 0;
  bool early_stopped = false;  // patience fired before config.epochs
  double best_dev_score = 0.0;
};

// Hook interface. Implementations must not mutate trainer state; they are
// called on the training thread between epochs.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  virtual void OnEpoch(const EpochRecord& record) = 0;
  virtual void OnFitEnd(const FitSummary& summary) {
    static_cast<void>(summary);
  }
};

// Writes one JSONL record per callback:
//   {"schema": "lncl.em_run.v1", "record": "epoch", "run": <label>, ...}
//   {"schema": "lncl.em_run.v1", "record": "fit_end", "run": <label>, ...}
// The file is truncated on construction; `label` tags records so several
// fits can share one file.
class JsonlRunLogger : public RunObserver {
 public:
  explicit JsonlRunLogger(const std::string& path,
                          std::string label = std::string());
  ~JsonlRunLogger() override;

  void OnEpoch(const EpochRecord& record) override;
  void OnFitEnd(const FitSummary& summary) override;

  bool ok() const { return static_cast<bool>(os_); }

  // Flushes this logger's stream (thread-safe with concurrent OnEpoch).
  void Flush();

 private:
  std::ofstream os_;
  std::string label_;
};

// Flushes every live JsonlRunLogger. Safe from any thread, including the
// util::CheckFailure abort path — which is the point: an invariant failure
// mid-epoch must not eat the run log's tail in a buffered ofstream.
void FlushRunLogs();

}  // namespace lncl::obs
