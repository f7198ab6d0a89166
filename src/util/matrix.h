#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace lncl::util {

// Globally unique, monotonically consumed content-version tickets for
// Matrix (see Matrix::version below). Thread-local block allocation: a
// thread grabs a block of 2^20 tickets with one atomic fetch_add and then
// hands them out locally, so bumping a version on the training hot path
// costs no shared-memory traffic.
uint64_t NextMatrixVersion();

// Dense row-major matrix of floats.
//
// This is the numeric workhorse of the neural-network substrate. It is a
// plain value type (copyable, movable) with bounds-checked access in audit
// builds (LNCL_AUDIT=ON). Heavy kernels (matrix products) live as free functions below so
// call sites read like math.
//
// Content versioning: every matrix carries a version ticket that changes on
// any mutating access (non-const data()/Row()/operator(), Fill, Resize,
// AddScaled, ...) and is *copied* by copy/move, so equal versions imply
// equal contents. The GEMM pack cache (util/gemm_kernel.h) keys transposed
// weight panels on (data pointer, version): a weight matrix is repacked
// once per optimizer step instead of once per layer call, and a worker
// replica synced by plain assignment inherits the master's ticket. The
// bump is a thread-local counter increment — cheap enough for per-row
// accessors.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
    LNCL_DCHECK(rows >= 0 && cols >= 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  // Bytes of backing storage actually held (capacity, not logical size) —
  // what the workspace arena's byte-accounting gauges report.
  size_t allocated_bytes() const { return data_.capacity() * sizeof(float); }

  // Content-version ticket: version() == version() of another matrix implies
  // equal contents (the converse need not hold). 0 only for a default-built,
  // never-mutated matrix.
  uint64_t version() const { return version_; }

  // Mutable element access draws a version ticket on every call (an
  // out-of-line NextMatrixVersion), so hot loops take Row()/data() once and
  // index the row instead.
  float& operator()(int r, int c) {
    LNCL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    BumpVersion();
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float operator()(int r, int c) const {
    LNCL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* Row(int r) {
    BumpVersion();
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const float* Row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  float* data() {
    BumpVersion();
    return data_.data();
  }
  const float* data() const { return data_.data(); }

  void Fill(float v) {
    BumpVersion();
    std::fill(data_.begin(), data_.end(), v);
  }
  void Zero() { Fill(0.0f); }

  // Resizes to rows x cols, zero-filling. Existing contents are discarded,
  // but the allocation is kept whenever the new shape fits the existing
  // capacity, so layers that reuse a scratch matrix across calls stop
  // paying a heap round-trip per Forward.
  void Resize(int rows, int cols) {
    ResizeNoZero(rows, cols);
    std::fill(data_.begin(), data_.end(), 0.0f);
  }

  // Resizes without initializing the contents (old values, if any, are
  // garbage with respect to the new shape). For outputs that are fully
  // overwritten, e.g. by a beta=0 Gemm.
  void ResizeNoZero(int rows, int cols) {
    LNCL_DCHECK(rows >= 0 && cols >= 0);
    BumpVersion();
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<size_t>(rows) * cols);
  }

  void Reserve(int rows, int cols) {
    data_.reserve(static_cast<size_t>(rows) * cols);
  }

  // this += alpha * other (same shape).
  void AddScaled(const Matrix& other, float alpha);

  // this *= alpha.
  void Scale(float alpha);

  // Sum of squared entries.
  double SquaredNorm() const;

 private:
  void BumpVersion() { version_ = NextMatrixVersion(); }

  int rows_;
  int cols_;
  uint64_t version_ = 0;
  std::vector<float> data_;
};

// Dense float vector with the same conventions as Matrix.
using Vector = std::vector<float>;

// Whether a Gemm operand is transposed.
enum class Trans { kNo, kYes };

// Fused epilogue activation for GemmEx (util/gemm_kernel.h): applied to
// each output element after the alpha/beta/bias combination, inside the
// kernel's single pass over C.
enum class Act { kNone, kRelu };

// General matrix multiply, the single optimized entry point every dense
// kernel funnels through:
//
//   C = alpha * op(A) * op(B) + beta * C
//
// with op(X) = X or X^T per the Trans flags. When beta == 0, C is resized to
// the product shape and fully overwritten (its previous contents, including
// NaNs, are ignored); otherwise C must already have the product shape.
// The implementation is cache-blocked and register-unrolled; it assumes
// dense operands (no zero-skipping branches).
void Gemm(float alpha, const Matrix& a, Trans trans_a, const Matrix& b,
          Trans trans_b, float beta, Matrix* c);

// Raw-pointer Gemm for operands that are strided views into larger buffers
// (e.g. the sliding windows of a 1-D convolution, which form an m x k
// operand over x with lda = in_dim and no copying). op(A) is m x k, op(B) is
// k x n, C is m x n; each operand's rows are `ld` floats apart in storage,
// with the transpose applying to the logical operand: op(A)(i, kk) is
// a[i * lda + kk] for kNo and a[kk * lda + i] for kYes. The caller owns all
// shape checking; C is never resized (use beta = 0 to overwrite).
void GemmRaw(int m, int n, int k, float alpha, const float* a, int lda,
             Trans trans_a, const float* b, int ldb, Trans trans_b, float beta,
             float* c, int ldc);

// Fused Gemm: C = act(alpha * op(A) * op(B) + beta * C + bias), where
// `bias` (length n, nullable) is broadcast over rows and `act` is applied
// elementwise, all in the kernel's single pass over C. Layers use this to
// fold their bias-add / ReLU second pass into the product. Resizing rules
// match Gemm. When trans_b == kYes, op(B) is served from the version-keyed
// pack cache (see util/gemm_kernel.h), so a weight matrix reused across a
// minibatch is transposed once per optimizer step, not once per call.
void GemmEx(float alpha, const Matrix& a, Trans trans_a, const Matrix& b,
            Trans trans_b, float beta, Matrix* c, const float* bias, Act act);

// out = a (rows_a x k) * b (k x cols_b). out is resized.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

// out = a^T * b, where a is (k x rows_out) and b is (k x cols_out).
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out);

// out = a * b^T, where a is (rows_out x k) and b is (cols_out x k).
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out);

// out = src^T; out is resized to cols x rows. Layers transpose a weight
// matrix once per call so the repeated products over it can run in the NN
// Gemm form, whose inner loop over independent output columns vectorizes
// (the NT form's per-output dot products cannot without reordering sums).
void TransposeInto(const Matrix& src, Matrix* out);

// y = W (m x n) * x (n) ; y is resized to m.
void MatVec(const Matrix& w, const Vector& x, Vector* y);

// y = W^T (m x n) * x (m) ; y is resized to n.
void MatVecTrans(const Matrix& w, const Vector& x, Vector* y);

// W += alpha * x (m) * y^T (n); W must be m x n.
void OuterAdd(const Vector& x, const Vector& y, float alpha, Matrix* w);

// Elementwise vector helpers.
void AddScaled(const Vector& x, float alpha, Vector* y);  // y += alpha*x
float Dot(const Vector& a, const Vector& b);

}  // namespace lncl::util

