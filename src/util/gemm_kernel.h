#pragma once

// Register-blocked GEMM microkernel layer.
//
// Every dense product in the library funnels through GemmEx below (the
// Matrix-level Gemm/GemmEx/MatVec wrappers in matrix.h delegate here). The
// layer owns three things:
//
//  * The microkernels. One scalar kernel and one explicitly vectorized SIMD
//    kernel (AVX-512 or AVX2+FMA, whichever the build targets) share a
//    single numeric contract: each output element C(i, j) is one
//    accumulator updated by a sequential fused multiply-add over ascending
//    k — the SIMD kernel vectorizes across output *columns* (lanes are
//    different j), never across k, and the scalar kernel uses std::fma per
//    element. Both therefore produce bit-identical results, and a result
//    row never depends on how many other rows the call computed — which is
//    what keeps the per-instance and batched prediction paths byte-equal.
//    Fused epilogues (alpha/beta combination, bias broadcast, ReLU)
//    run in the same pass over C, with one scalar formula mirrored exactly
//    by the vector code.
//
//  * Operand packing. The kernels consume op(B) in k-major layout (row k
//    holds op(B)(k, 0..n)), so trans_b == kYes operands are transposed into
//    a panel first. PackedOpB serves those panels from a per-thread cache
//    keyed by (data pointer, Matrix::version()): weight matrices — the only
//    B operands layers pass transposed — are repacked once per optimizer
//    step instead of once per layer call, which is what won back the
//    batched m_step regression. Raw-pointer callers without a Matrix (and
//    hence without a version) get an uncached per-call pack.
//
//  * Dispatch. The kernel kind is selected once at startup — the SIMD
//    kernel when the build compiled one, overridable with the environment
//    variable LNCL_GEMM_KERNEL in {auto, scalar, simd} (anything else
//    aborts) — and is observable through the gemm.kernel.{simd,scalar}
//    metrics counters. Because scalar and SIMD agree bitwise, the override
//    is a determinism test fixture, not a numerics switch.
//
// This file is the one place in the tree allowed to touch raw SIMD
// intrinsics (tools/lint.py enforces it); everything else stays portable.

#include <cstdint>

#include "util/matrix.h"

namespace lncl::util::gemm {

// Which microkernel family executes GemmEx calls.
enum class Kind { kScalar, kSimd };

// True when the build compiled a SIMD kernel (AVX-512F or AVX2+FMA target).
bool SimdCompiled();

// Width tag of the compiled SIMD kernel for diagnostics: "avx512", "avx2",
// or "none".
const char* SimdIsa();

// The kernel kind every GemmEx call uses, selected on first use from
// LNCL_GEMM_KERNEL (see ParseKindEnv).
Kind ActiveKind();

// "scalar" / "simd".
const char* KindName(Kind kind);

// Re-reads LNCL_GEMM_KERNEL and returns the kind it selects: unset/empty
// and "auto" pick the best compiled kernel, "scalar" forces the scalar
// kernel, "simd" requires a compiled SIMD kernel (aborts otherwise), and
// any other value aborts through LNCL_CHECK. Exposed separately from
// ActiveKind so tests can exercise the parse (including its death paths)
// after startup.
Kind ParseKindEnv();

// Test hook: overrides the active kind for subsequent GemmEx calls. The
// scalar/SIMD bit-equality contract makes this invisible to results.
void SetActiveKindForTest(Kind kind);

// C = act(alpha * op(A) * op(B) + beta * C + bias).
//
// op(A) is m x k (trans_a == kYes reads A stored k x m), op(B) is k x n,
// C is m x n; lda/ldb/ldc are storage leading dimensions, so operands may
// be strided views into larger buffers. bias (length n) may be null. The
// epilogue applies, per element and in this order: alpha scaling, the
// beta * C term (std::fma(beta, c, t) when beta is neither 0 nor 1), the
// bias broadcast, then act. The caller owns all shape checking; C is never
// resized (beta = 0 overwrites).
void GemmEx(int m, int n, int k, float alpha, const float* a, int lda,
            Trans trans_a, const float* b, int ldb, Trans trans_b, float beta,
            float* c, int ldc, const float* bias, Act act);

// Returns op(B) of the Matrix operand in k-major layout and writes its
// leading dimension to *ldb. trans_b == kNo is b.data() itself; trans_b ==
// kYes returns a transposed panel from the per-thread pack cache, valid
// until the owning thread packs ~32 further distinct operands (callers
// must not hold it across other GemmEx-issuing work). Cache hits/misses
// are counted as gemm.pack.{hit,miss}.
const float* PackedOpB(const Matrix& b, Trans trans_b, int* ldb);

// Int8 serving kernel: C = act(scale[j] * (A * Q) + bias), with Q a k x n
// int8 panel (k-major, as produced by nn::QuantizeRows from a transposed
// weight matrix) and per-output-column dequantization scales. Accumulation
// is fp32 over the exactly-representable int8 values, in the same
// one-accumulator / ascending-k order as GemmEx, so the scalar and SIMD
// paths agree bitwise and batching never changes a row. bias may be null.
void GemmInt8(int m, int n, int k, const float* a, int lda,
              const int8_t* b_kmajor, const float* scale, float* c, int ldc,
              const float* bias, Act act);

}  // namespace lncl::util::gemm
