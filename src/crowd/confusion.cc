#include "crowd/confusion.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace lncl::crowd {

ConfusionMatrix::ConfusionMatrix(int num_classes, double diag) {
  m_.Resize(num_classes, num_classes);
  const float off = num_classes > 1
                        ? static_cast<float>((1.0 - diag) / (num_classes - 1))
                        : 0.0f;
  for (int r = 0; r < num_classes; ++r) {
    for (int c = 0; c < num_classes; ++c) {
      m_(r, c) = r == c ? static_cast<float>(diag) : off;
    }
  }
}

void ConfusionMatrix::NormalizeRows(double smoothing) {
  for (int r = 0; r < m_.rows(); ++r) {
    float* row = m_.Row(r);
    double sum = 0.0;
    for (int c = 0; c < m_.cols(); ++c) {
      row[c] += static_cast<float>(smoothing);
      sum += row[c];
    }
    if (sum <= 0.0) {
      for (int c = 0; c < m_.cols(); ++c) {
        row[c] = 1.0f / static_cast<float>(m_.cols());
      }
    } else {
      const float inv = static_cast<float>(1.0 / sum);
      for (int c = 0; c < m_.cols(); ++c) row[c] *= inv;
    }
  }
  // Eq. 12 closed form ends here: every annotator row must leave as a
  // distribution over observed labels.
  LNCL_AUDIT_ROW_STOCHASTIC(m_);
}

double ConfusionMatrix::Reliability() const {
  double sum = 0.0;
  for (int r = 0; r < m_.rows(); ++r) sum += m_(r, r);
  return m_.rows() > 0 ? sum / m_.rows() : 0.0;
}

double ConfusionMatrix::Distance(const ConfusionMatrix& other) const {
  LNCL_DCHECK(num_classes() == other.num_classes());
  double sum = 0.0;
  for (int r = 0; r < m_.rows(); ++r) {
    for (int c = 0; c < m_.cols(); ++c) {
      const double d = m_(r, c) - other.m_(r, c);
      sum += d * d;
    }
  }
  return std::sqrt(sum);
}

ConfusionSet EmpiricalConfusions(const AnnotationSet& annotations,
                                 const data::Dataset& dataset) {
  std::vector<int> items(dataset.size());
  for (int i = 0; i < dataset.size(); ++i) items[i] = dataset.NumItems(i);
  annotations.CheckEntries(items);
  const int k = annotations.num_classes();
  ConfusionSet result(annotations.num_annotators(), ConfusionMatrix(k, 0.0));
  for (auto& cm : result) cm.matrix().Zero();
  for (int i = 0; i < annotations.num_instances(); ++i) {
    for (const AnnotatorLabels& e : annotations.instance(i).entries) {
      for (size_t t = 0; t < e.labels.size(); ++t) {
        const int truth = dataset.ItemLabel(i, static_cast<int>(t));
        result[e.annotator](truth, e.labels[t]) += 1.0f;
      }
    }
  }
  for (auto& cm : result) cm.NormalizeRows(1e-9);
  return result;
}

std::vector<util::Matrix> LogConfusions(const ConfusionSet& confusions) {
  std::vector<util::Matrix> logs(confusions.size());
  for (size_t a = 0; a < confusions.size(); ++a) {
    const util::Matrix& pi = confusions[a].matrix();
    const int k = pi.rows();
    logs[a].ResizeNoZero(k, k);
    const float* const src = pi.data();
    float* const dst = logs[a].data();
    for (int y = 0; y < k; ++y) {
      for (int m = 0; m < k; ++m) {
        dst[y * k + m] = static_cast<float>(
            std::log(std::max(static_cast<double>(src[m * k + y]), 1e-300)));
      }
    }
  }
  return logs;
}

void ConfusionCounts::AddCounts(const ConfusionCounts& other) {
  LNCL_DCHECK(other.counts_.size() == counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

void ConfusionCounts::ToConfusions(ConfusionSet* out, double diag_pseudo,
                                   double smoothing) const {
  const size_t kk = static_cast<size_t>(k_) * k_;
  LNCL_DCHECK(out->size() * kk == counts_.size());
  for (size_t a = 0; a < out->size(); ++a) {
    util::Matrix& pi = (*out)[a].matrix();
    LNCL_DCHECK(pi.rows() == k_ && pi.cols() == k_);
    const float* const table = counts_.data() + a * kk;
    float* const dst = pi.data();
    for (int m = 0; m < k_; ++m) {
      for (int y = 0; y < k_; ++y) dst[m * k_ + y] = table[y * k_ + m];
    }
    if (diag_pseudo != 0.0) {
      for (int m = 0; m < k_; ++m) {
        dst[m * k_ + m] += static_cast<float>(diag_pseudo);
      }
    }
    (*out)[a].NormalizeRows(smoothing);
  }
}

}  // namespace lncl::crowd
