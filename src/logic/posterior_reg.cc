#include "logic/posterior_reg.h"

#include <cmath>

#include "util/check.h"

namespace lncl::logic {

util::Matrix RuleProjector::Project(const data::Instance& x,
                                    const util::Matrix& q, double C) const {
  std::vector<util::Matrix> qs = {q};
  ProjectBatch({&x}, &qs, C);
  return std::move(qs[0]);
}

util::Matrix ProjectIndependent(const util::Matrix& q,
                                const util::Matrix& penalties, double C) {
  LNCL_AUDIT_SHAPE(penalties, q.rows(), q.cols());
  LNCL_AUDIT_SIMPLEX(q);
  LNCL_AUDIT_FINITE(penalties);
  util::Matrix out(q.rows(), q.cols());
  for (int r = 0; r < q.rows(); ++r) {
    const float* qr = q.Row(r);
    const float* pen = penalties.Row(r);
    float* o = out.Row(r);
    double sum = 0.0;
    for (int k = 0; k < q.cols(); ++k) {
      o[k] = static_cast<float>(qr[k] * std::exp(-C * pen[k]));
      sum += o[k];
    }
    if (sum <= 1e-30) {
      // Every class fully penalized away: keep the original posterior.
      for (int k = 0; k < q.cols(); ++k) o[k] = qr[k];
    } else {
      const float inv = static_cast<float>(1.0 / sum);
      for (int k = 0; k < q.cols(); ++k) o[k] *= inv;
    }
  }
  // The Eq. 15 projection is itself a distribution per item.
  LNCL_AUDIT_SIMPLEX(out);
  return out;
}

util::Vector ProjectCategorical(const util::Vector& q,
                                const util::Vector& penalties, double C) {
  util::Matrix qm(1, static_cast<int>(q.size()));
  util::Matrix pm(1, static_cast<int>(q.size()));
  for (size_t k = 0; k < q.size(); ++k) {
    qm(0, static_cast<int>(k)) = q[k];
    pm(0, static_cast<int>(k)) = penalties[k];
  }
  util::Matrix out = ProjectIndependent(qm, pm, C);
  return util::Vector(out.Row(0), out.Row(0) + out.cols());
}

}  // namespace lncl::logic
