#pragma once

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

// Per-annotator K x K tables log_pi[a](m, y) = float(log(max(pi_a(m, y),
// 1e-300))): the likelihood logs of Eq. 13 and of every confusion-matrix
// aggregator's E-step. Built once per EM iteration, after the M-step, so the
// E-step adds table entries instead of taking one log per (item, label,
// class); the entries are the very floats the in-line logs produced.
std::vector<util::Matrix> LogConfusions(const ConfusionSet& confusions);

// Empirical confusion matrices computed from crowd labels against ground
// truth (item granularity). Annotators with no labels get uniform rows.
ConfusionSet EmpiricalConfusions(const AnnotationSet& annotations,
                                 const data::Dataset& dataset);

}  // namespace lncl::crowd

