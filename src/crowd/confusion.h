#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "crowd/annotation.h"
#include "data/dataset.h"
#include "util/matrix.h"

namespace lncl::crowd {

// A K x K row-stochastic annotator confusion matrix: entry (m, n) is the
// probability that the annotator reports label n when the truth is m — the
// pi^{(j)}_{mn} of Eq. 2.
class ConfusionMatrix {
 public:
  ConfusionMatrix() = default;
  // Initialized to the "diagonal prior": diag probability `diag`, the rest
  // spread uniformly. diag defaults to a mildly-better-than-random 0.7.
  explicit ConfusionMatrix(int num_classes, double diag = 0.7);

  int num_classes() const { return m_.rows(); }

  float& operator()(int truth, int reported) { return m_(truth, reported); }
  float operator()(int truth, int reported) const { return m_(truth, reported); }

  util::Matrix& matrix() { return m_; }
  const util::Matrix& matrix() const { return m_; }

  // Renormalizes each row to sum to 1 after adding `smoothing` to every cell
  // (rows that were all-zero become uniform).
  void NormalizeRows(double smoothing = 1e-6);

  // Mean diagonal value: the scalar annotator-reliability summary used in
  // the paper's Figures 6(b)/7(b).
  double Reliability() const;

  // Frobenius distance to another confusion matrix of the same size.
  double Distance(const ConfusionMatrix& other) const;

 private:
  util::Matrix m_;
};

using ConfusionSet = std::vector<ConfusionMatrix>;

// Per-annotator K x K likelihood-log tables, label-major (the transpose of
// ConfusionMatrix): row y of table a holds the log-likelihoods of reported
// label y for truth m = 0..K-1, log_pi[a](y, m) = float(log(max(pi_a(m, y),
// 1e-300))). The likelihoods of Eq. 13 and of every confusion-matrix
// aggregator's E-step, which adds one contiguous row per received label;
// built once per EM iteration, after the M-step.
std::vector<util::Matrix> LogConfusions(const ConfusionSet& confusions);

// The E-steps' exponentiation of summed log-likelihoods: v[m] = exp(v[m] -
// max v) in float for m < k, returning the new v's sum in double.
inline double ExpShifted(float* v, int k) {
  float mx = v[0];
  for (int m = 1; m < k; ++m) mx = std::max(mx, v[m]);
  double sum = 0.0;
  for (int m = 0; m < k; ++m) {
    v[m] = std::exp(v[m] - mx);
    sum += v[m];
  }
  return sum;
}

// Soft counts of the closed-form confusion M-step (Eq. 12), label-major like
// LogConfusions: one K x K table per annotator (or annotator and context)
// in one array, row y of table a summing the truth posteriors of the items
// a labelled y. Each count cell takes its adds in the caller's order.
class ConfusionCounts {
 public:
  ConfusionCounts(int num_tables, int num_classes)
      : k_(num_classes),
        counts_(static_cast<size_t>(num_tables) * num_classes * num_classes,
                0.0f) {}

  void Zero() { std::fill(counts_.begin(), counts_.end(), 0.0f); }

  // Row `label` of table `table` += q[0..K).
  void Add(int table, int label, const float* q) {
    float* const row =
        counts_.data() + (static_cast<size_t>(table) * k_ + label) * k_;
    for (int m = 0; m < k_; ++m) row[m] += q[m];
  }

  // Every cell += the same cell of `other` (same shape).
  void AddCounts(const ConfusionCounts& other);

  // (*out)[a](m, y) = row y, entry m of table a, for every table; then
  // adds `diag_pseudo` to each diagonal when it is nonzero and normalizes
  // the rows with `smoothing` (ConfusionMatrix::NormalizeRows).
  void ToConfusions(ConfusionSet* out, double diag_pseudo,
                    double smoothing) const;

 private:
  int k_;
  std::vector<float> counts_;
};

// Empirical confusion matrices computed from crowd labels against ground
// truth (item granularity). Annotators with no labels get uniform rows.
// Aborts naming the instance, the annotator and the value when the crowd
// does not fit the dataset (AnnotationSet::CheckEntries).
ConfusionSet EmpiricalConfusions(const AnnotationSet& annotations,
                                 const data::Dataset& dataset);

}  // namespace lncl::crowd

