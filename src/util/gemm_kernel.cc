#include "util/gemm_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#define LNCL_GEMM_SIMD 1
#else
#define LNCL_GEMM_SIMD 0
#endif

#include "obs/metrics.h"
#include "util/check.h"

namespace lncl::util::gemm {
namespace {

// A(i, k) under the trans_a flag: kTa reads A stored k x m.
template <bool kTa>
inline float AElem(const float* a, int lda, int i, int k) {
  return kTa ? a[static_cast<size_t>(k) * lda + i]
             : a[static_cast<size_t>(i) * lda + k];
}

// The one epilogue formula, per element. The vector code below applies the
// same operations lane-wise in the same order; keeping this scalar twin in
// one place is what the SIMD-vs-scalar bit-equality tests lean on.
inline float FinishElem(float acc, float alpha, float beta, float cprev,
                        bool has_bias, float bias, Act act) {
  float t = acc;
  if (alpha != 1.0f) t *= alpha;
  if (beta == 1.0f) {
    t += cprev;
  } else if (beta != 0.0f) {
    t = std::fma(beta, cprev, t);
  }
  if (has_bias) t += bias;
  if (act == Act::kRelu) {
    t = t > 0.0f ? t : 0.0f;  // matches max_ps(t, 0): NaN and -0 both -> +0
  }
  return t;
}

// ---------------------------------------------------------------------------
// Scalar kernel: one accumulator per output element, sequential std::fma
// over ascending k. std::fma is a single correctly-rounded fused operation,
// so each lane of the SIMD kernel computes exactly this.
// ---------------------------------------------------------------------------

template <bool kTa>
void ScalarGemmImpl(int m, int n, int kd, float alpha, const float* a,
                    int lda, const float* b, int ldb, float beta, float* c,
                    int ldc, const float* bias, Act act) {
  constexpr int kJb = 16;
  float acc[kJb];
  for (int i = 0; i < m; ++i) {
    float* __restrict cr = c + static_cast<size_t>(i) * ldc;
    for (int j0 = 0; j0 < n; j0 += kJb) {
      const int jb = std::min(kJb, n - j0);
      for (int j = 0; j < jb; ++j) acc[j] = 0.0f;
      for (int k = 0; k < kd; ++k) {
        const float av = AElem<kTa>(a, lda, i, k);
        const float* __restrict br = b + static_cast<size_t>(k) * ldb + j0;
        for (int j = 0; j < jb; ++j) acc[j] = std::fma(av, br[j], acc[j]);
      }
      for (int j = 0; j < jb; ++j) {
        cr[j0 + j] = FinishElem(acc[j], alpha, beta, cr[j0 + j],
                                bias != nullptr, bias != nullptr ? bias[j0 + j] : 0.0f,
                                act);
      }
    }
  }
}

void ScalarGemmInt8Impl(int m, int n, int kd, const float* a, int lda,
                        const int8_t* q, const float* scale, float* c,
                        int ldc, const float* bias, Act act) {
  constexpr int kJb = 16;
  float acc[kJb];
  for (int i = 0; i < m; ++i) {
    const float* __restrict ar = a + static_cast<size_t>(i) * lda;
    float* __restrict cr = c + static_cast<size_t>(i) * ldc;
    for (int j0 = 0; j0 < n; j0 += kJb) {
      const int jb = std::min(kJb, n - j0);
      for (int j = 0; j < jb; ++j) acc[j] = 0.0f;
      for (int k = 0; k < kd; ++k) {
        const float av = ar[k];
        const int8_t* __restrict qr = q + static_cast<size_t>(k) * n + j0;
        for (int j = 0; j < jb; ++j) {
          acc[j] = std::fma(av, static_cast<float>(qr[j]), acc[j]);
        }
      }
      for (int j = 0; j < jb; ++j) {
        // Dequantize in the epilogue: alpha = scale[j], beta = 0.
        cr[j0 + j] = FinishElem(acc[j] * scale[j0 + j], 1.0f, 0.0f, 0.0f,
                                bias != nullptr, bias != nullptr ? bias[j0 + j] : 0.0f,
                                act);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD kernel. One ISA is compiled per build; thin wrappers give both the
// same face so the blocked kernel is written once. Lanes are output columns
// j; k is never split, so every lane runs the scalar recurrence exactly.
// ---------------------------------------------------------------------------

#if LNCL_GEMM_SIMD

#if defined(__AVX512F__)

using VReg = __m512;
constexpr int kVecLen = 16;
constexpr const char* kSimdIsa = "avx512";

inline __mmask16 TailMask(int rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}
inline VReg VZero() { return _mm512_setzero_ps(); }
inline VReg VSet1(float x) { return _mm512_set1_ps(x); }
inline VReg VLoad(const float* p) { return _mm512_loadu_ps(p); }
inline void VStore(float* p, VReg v) { _mm512_storeu_ps(p, v); }
inline VReg VLoadTail(const float* p, int rem) {
  return _mm512_maskz_loadu_ps(TailMask(rem), p);
}
inline void VStoreTail(float* p, int rem, VReg v) {
  _mm512_mask_storeu_ps(p, TailMask(rem), v);
}
inline VReg VAdd(VReg x, VReg y) { return _mm512_add_ps(x, y); }
inline VReg VMul(VReg x, VReg y) { return _mm512_mul_ps(x, y); }
inline VReg VFma(VReg x, VReg y, VReg z) { return _mm512_fmadd_ps(x, y, z); }
// max(t, 0) with 0 as the second operand: NaN lanes become +0, matching the
// scalar `t > 0 ? t : 0`.
inline VReg VRelu(VReg x) { return _mm512_max_ps(x, _mm512_setzero_ps()); }
inline VReg VLoadQ(const int8_t* p) {
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(raw));
}
inline VReg VLoadQTail(const int8_t* p, int rem) {
  alignas(16) int8_t buf[16] = {};
  std::memcpy(buf, p, static_cast<size_t>(rem));
  const __m128i raw = _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
  return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(raw));
}

#else  // __AVX2__ && __FMA__

using VReg = __m256;
constexpr int kVecLen = 8;
constexpr const char* kSimdIsa = "avx2";

inline __m256i TailMask(int rem) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), idx);
}
inline VReg VZero() { return _mm256_setzero_ps(); }
inline VReg VSet1(float x) { return _mm256_set1_ps(x); }
inline VReg VLoad(const float* p) { return _mm256_loadu_ps(p); }
inline void VStore(float* p, VReg v) { _mm256_storeu_ps(p, v); }
inline VReg VLoadTail(const float* p, int rem) {
  return _mm256_maskload_ps(p, TailMask(rem));
}
inline void VStoreTail(float* p, int rem, VReg v) {
  _mm256_maskstore_ps(p, TailMask(rem), v);
}
inline VReg VAdd(VReg x, VReg y) { return _mm256_add_ps(x, y); }
inline VReg VMul(VReg x, VReg y) { return _mm256_mul_ps(x, y); }
inline VReg VFma(VReg x, VReg y, VReg z) { return _mm256_fmadd_ps(x, y, z); }
inline VReg VRelu(VReg x) { return _mm256_max_ps(x, _mm256_setzero_ps()); }
inline VReg VLoadQ(const int8_t* p) {
  const __m128i raw = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
}
inline VReg VLoadQTail(const int8_t* p, int rem) {
  alignas(16) int8_t buf[16] = {};
  std::memcpy(buf, p, static_cast<size_t>(rem));
  const __m128i raw = _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
}

#endif  // ISA selection

// Vector epilogue over `width` (<= kVecLen) columns starting at column j of
// row pointer cr: lane-wise FinishElem.
inline void FinishVec(VReg acc, float alpha, float beta, float* cr, int j,
                      int width, const float* bias, Act act) {
  VReg t = acc;
  if (alpha != 1.0f) t = VMul(t, VSet1(alpha));
  if (beta == 1.0f) {
    t = VAdd(t, width == kVecLen ? VLoad(cr + j) : VLoadTail(cr + j, width));
  } else if (beta != 0.0f) {
    t = VFma(VSet1(beta),
             width == kVecLen ? VLoad(cr + j) : VLoadTail(cr + j, width), t);
  }
  if (bias != nullptr) {
    t = VAdd(t,
             width == kVecLen ? VLoad(bias + j) : VLoadTail(bias + j, width));
  }
  if (act == Act::kRelu) t = VRelu(t);
  if (width == kVecLen) {
    VStore(cr + j, t);
  } else {
    VStoreTail(cr + j, width, t);
  }
}

// One kMrT x (kNv * kVecLen) register block, full-width columns.
template <bool kTa, int kMrT, int kNv>
inline void SimdBlock(int kd, float alpha, const float* a, int lda, int i0,
                      const float* b, int ldb, int j0, float beta, float* c,
                      int ldc, const float* bias, Act act) {
  VReg acc[kMrT][kNv];
  for (int r = 0; r < kMrT; ++r) {
    for (int v = 0; v < kNv; ++v) acc[r][v] = VZero();
  }
  for (int k = 0; k < kd; ++k) {
    const float* __restrict br = b + static_cast<size_t>(k) * ldb + j0;
    VReg bv[kNv];
    for (int v = 0; v < kNv; ++v) bv[v] = VLoad(br + v * kVecLen);
    for (int r = 0; r < kMrT; ++r) {
      const VReg av = VSet1(AElem<kTa>(a, lda, i0 + r, k));
      for (int v = 0; v < kNv; ++v) acc[r][v] = VFma(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < kMrT; ++r) {
    float* cr = c + static_cast<size_t>(i0 + r) * ldc;
    for (int v = 0; v < kNv; ++v) {
      FinishVec(acc[r][v], alpha, beta, cr, j0 + v * kVecLen, kVecLen, bias,
                act);
    }
  }
}

// Masked column tail (rem < kVecLen columns): dead lanes accumulate zeros
// and are never stored.
template <bool kTa, int kMrT>
inline void SimdBlockTail(int kd, float alpha, const float* a, int lda,
                          int i0, const float* b, int ldb, int j0, int rem,
                          float beta, float* c, int ldc, const float* bias,
                          Act act) {
  VReg acc[kMrT];
  for (int r = 0; r < kMrT; ++r) acc[r] = VZero();
  for (int k = 0; k < kd; ++k) {
    const VReg bv = VLoadTail(b + static_cast<size_t>(k) * ldb + j0, rem);
    for (int r = 0; r < kMrT; ++r) {
      acc[r] = VFma(VSet1(AElem<kTa>(a, lda, i0 + r, k)), bv, acc[r]);
    }
  }
  for (int r = 0; r < kMrT; ++r) {
    FinishVec(acc[r], alpha, beta, c + static_cast<size_t>(i0 + r) * ldc, j0,
              rem, bias, act);
  }
}

template <bool kTa, int kMrT>
void SimdRowBlock(int n, int kd, float alpha, const float* a, int lda, int i0,
                  const float* b, int ldb, float beta, float* c, int ldc,
                  const float* bias, Act act) {
  int j0 = 0;
  for (; j0 + 2 * kVecLen <= n; j0 += 2 * kVecLen) {
    SimdBlock<kTa, kMrT, 2>(kd, alpha, a, lda, i0, b, ldb, j0, beta, c, ldc,
                            bias, act);
  }
  if (j0 + kVecLen <= n) {
    SimdBlock<kTa, kMrT, 1>(kd, alpha, a, lda, i0, b, ldb, j0, beta, c, ldc,
                            bias, act);
    j0 += kVecLen;
  }
  if (j0 < n) {
    SimdBlockTail<kTa, kMrT>(kd, alpha, a, lda, i0, b, ldb, j0, n - j0, beta,
                             c, ldc, bias, act);
  }
}

// Tallest fp32 row block: kMrMax C rows x 2 vector registers of
// accumulators, plus the 2 B vectors and a broadcast. On AVX-512 that is 27
// of the 32 zmm registers; AVX2 has 16 ymm registers and stops at 6 rows.
// The TN form (A read k-major) only computes weight gradients and stays at
// 6 rows: its 7..12-row blocks add about 170 KB of text, and with them
// ner_fit's peak RSS read 3-7% above the 6-row TN form's.
#if defined(__AVX512F__)
constexpr int kMrTall = 12;
#else
constexpr int kMrTall = 6;
#endif
template <bool kTa>
constexpr int kMrMax = kTa ? 6 : kMrTall;

// SimdRowBlock at the compile-time height equal to h, 1 <= h <= kMrT.
template <bool kTa, int kMrT>
void SimdRowBlockOfHeight(int h, int n, int kd, float alpha, const float* a,
                          int lda, int i0, const float* b, int ldb,
                          float beta, float* c, int ldc, const float* bias,
                          Act act) {
  if constexpr (kMrT > 1) {
    if (h < kMrT) {
      SimdRowBlockOfHeight<kTa, kMrT - 1>(h, n, kd, alpha, a, lda, i0, b, ldb,
                                          beta, c, ldc, bias, act);
      return;
    }
  }
  SimdRowBlock<kTa, kMrT>(n, kd, alpha, a, lda, i0, b, ldb, beta, c, ldc,
                          bias, act);
}

// ceil(m / kMrMax) row blocks whose heights differ by at most one: m = 13
// runs as 7 + 6, not 12 + 1, so no block is a short latency-bound chain.
// Rows are independent, so the split never changes a result bit.
template <bool kTa>
void SimdGemmImpl(int m, int n, int kd, float alpha, const float* a, int lda,
                  const float* b, int ldb, float beta, float* c, int ldc,
                  const float* bias, Act act) {
  constexpr int kCap = kMrMax<kTa>;
  const int blocks = (m + kCap - 1) / kCap;
  const int base = m / blocks;
  const int taller = m % blocks;  // blocks of base + 1 rows, first
  for (int bi = 0, i0 = 0; bi < blocks; ++bi) {
    const int h = base + (bi < taller ? 1 : 0);
    SimdRowBlockOfHeight<kTa, kCap>(h, n, kd, alpha, a, lda, i0, b, ldb,
                                    beta, c, ldc, bias, act);
    i0 += h;
  }
}

// Int8 analog: B lanes come from a widening int8 -> fp32 conversion (exact
// for the int8 range), scales fold in through the epilogue's alpha slot.
// Fixed 6-row blocks of one vector register per row.
constexpr int kMr = 6;

template <int kMrT>
inline void SimdInt8Block(int kd, const float* a, int lda, int i0,
                          const int8_t* q, int n, int j0, int width,
                          const float* scale, float* c, int ldc,
                          const float* bias, Act act) {
  VReg acc[kMrT];
  for (int r = 0; r < kMrT; ++r) acc[r] = VZero();
  for (int k = 0; k < kd; ++k) {
    const int8_t* qr = q + static_cast<size_t>(k) * n + j0;
    const VReg bv = width == kVecLen ? VLoadQ(qr) : VLoadQTail(qr, width);
    for (int r = 0; r < kMrT; ++r) {
      acc[r] = VFma(VSet1(a[static_cast<size_t>(i0 + r) * lda + k]), bv,
                    acc[r]);
    }
  }
  const VReg sv = width == kVecLen ? VLoad(scale + j0)
                                   : VLoadTail(scale + j0, width);
  for (int r = 0; r < kMrT; ++r) {
    FinishVec(VMul(acc[r], sv), 1.0f, 0.0f,
              c + static_cast<size_t>(i0 + r) * ldc, j0, width, bias, act);
  }
}

template <int kMrT>
void SimdInt8RowBlock(int n, int kd, const float* a, int lda, int i0,
                      const int8_t* q, const float* scale, float* c, int ldc,
                      const float* bias, Act act) {
  int j0 = 0;
  for (; j0 + kVecLen <= n; j0 += kVecLen) {
    SimdInt8Block<kMrT>(kd, a, lda, i0, q, n, j0, kVecLen, scale, c, ldc,
                        bias, act);
  }
  if (j0 < n) {
    SimdInt8Block<kMrT>(kd, a, lda, i0, q, n, j0, n - j0, scale, c, ldc,
                        bias, act);
  }
}

void SimdGemmInt8Impl(int m, int n, int kd, const float* a, int lda,
                      const int8_t* q, const float* scale, float* c, int ldc,
                      const float* bias, Act act) {
  for (int i0 = 0; i0 < m; i0 += kMr) {
    switch (std::min(kMr, m - i0)) {
      case 6:
        SimdInt8RowBlock<6>(n, kd, a, lda, i0, q, scale, c, ldc, bias, act);
        break;
      case 5:
        SimdInt8RowBlock<5>(n, kd, a, lda, i0, q, scale, c, ldc, bias, act);
        break;
      case 4:
        SimdInt8RowBlock<4>(n, kd, a, lda, i0, q, scale, c, ldc, bias, act);
        break;
      case 3:
        SimdInt8RowBlock<3>(n, kd, a, lda, i0, q, scale, c, ldc, bias, act);
        break;
      case 2:
        SimdInt8RowBlock<2>(n, kd, a, lda, i0, q, scale, c, ldc, bias, act);
        break;
      default:
        SimdInt8RowBlock<1>(n, kd, a, lda, i0, q, scale, c, ldc, bias, act);
        break;
    }
  }
}

#endif  // LNCL_GEMM_SIMD

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

// -1 = not yet selected. A racing first use computes the same value twice.
std::atomic<int> g_active_kind{-1};

// ---------------------------------------------------------------------------
// Packing.
// ---------------------------------------------------------------------------

// Per-call pack scratch for raw-pointer trans_b == kYes operands (no
// version to key a cache on). Grow-only, reused across calls.
thread_local std::vector<float> tls_pack_scratch;

// Writes op(B) = B^T (B stored n x k with leading dimension ldb) into dst
// in k-major layout (k rows of n).
void TransposePack(const float* b, int ldb, int n, int kd, float* dst) {
  for (int j = 0; j < n; ++j) {
    const float* __restrict src = b + static_cast<size_t>(j) * ldb;
    for (int k = 0; k < kd; ++k) dst[static_cast<size_t>(k) * n + j] = src[k];
  }
}

// Version-keyed pack cache: bounded, per-thread, LRU-evicted. 32 entries
// cover every weight matrix of the bundled models (largest: NER with 21
// parameter matrices) with headroom, as long as one thread trains one
// model: each sharded-training worker thread packs only its own model's
// panels (core/trainer.h). The key includes the data pointer so worker
// replicas get distinct entries, and Matrix::version() equality guarantees
// content equality (see matrix.h).
constexpr int kPackCacheSlots = 32;

struct PackEntry {
  const float* src = nullptr;
  uint64_t version = 0;
  int rows = 0;
  int cols = 0;
  uint64_t stamp = 0;
  std::vector<float> panel;
};

thread_local PackEntry tls_pack_cache[kPackCacheSlots];
thread_local uint64_t tls_pack_stamp = 0;

}  // namespace

bool SimdCompiled() { return LNCL_GEMM_SIMD != 0; }

const char* SimdIsa() {
#if LNCL_GEMM_SIMD
  return kSimdIsa;
#else
  return "none";
#endif
}

const char* KindName(Kind kind) {
  return kind == Kind::kSimd ? "simd" : "scalar";
}

Kind ParseKindEnv() {
  const char* env = std::getenv("LNCL_GEMM_KERNEL");
  const std::string value = env != nullptr ? env : "";
  if (value.empty() || value == "auto") {
    return SimdCompiled() ? Kind::kSimd : Kind::kScalar;
  }
  if (value == "scalar") return Kind::kScalar;
  if (value == "simd") {
    if (!SimdCompiled()) {
      CheckFailure(__FILE__, __LINE__, "LNCL_GEMM_KERNEL=simd",
                   "no SIMD kernel compiled into this build");
    }
    return Kind::kSimd;
  }
  CheckFailure(__FILE__, __LINE__, "LNCL_GEMM_KERNEL",
               "invalid value \"" + value + "\" (want auto, scalar, or simd)");
}

Kind ActiveKind() {
  int kind = g_active_kind.load(std::memory_order_relaxed);
  if (kind < 0) {
    kind = static_cast<int>(ParseKindEnv());
    g_active_kind.store(kind, std::memory_order_relaxed);
  }
  return static_cast<Kind>(kind);
}

void SetActiveKindForTest(Kind kind) {
  g_active_kind.store(static_cast<int>(kind), std::memory_order_relaxed);
}

const float* PackedOpB(const Matrix& b, Trans trans_b, int* ldb) {
  if (trans_b == Trans::kNo) {
    *ldb = b.cols();
    return b.data();
  }
  const int n = b.rows();   // columns of op(B)
  const int kd = b.cols();  // k extent
  *ldb = n;
  PackEntry* lru = &tls_pack_cache[0];
  for (int s = 0; s < kPackCacheSlots; ++s) {
    PackEntry& e = tls_pack_cache[s];
    if (e.src == b.data() && e.version == b.version() && e.rows == n &&
        e.cols == kd) {
      e.stamp = ++tls_pack_stamp;
      if (obs::Metrics::enabled()) {
        static obs::Counter* const hits =
            obs::Metrics::GetCounter("gemm.pack.hit");
        hits->Increment();
      }
      return e.panel.data();
    }
    if (e.stamp < lru->stamp) lru = &e;
  }
  if (obs::Metrics::enabled()) {
    static obs::Counter* const misses =
        obs::Metrics::GetCounter("gemm.pack.miss");
    misses->Increment();
  }
  lru->src = b.data();
  lru->version = b.version();
  lru->rows = n;
  lru->cols = kd;
  lru->stamp = ++tls_pack_stamp;
  lru->panel.resize(static_cast<size_t>(n) * kd);
  TransposePack(b.data(), kd, n, kd, lru->panel.data());
  return lru->panel.data();
}

void GemmEx(int m, int n, int k, float alpha, const float* a, int lda,
            Trans trans_a, const float* b, int ldb, Trans trans_b, float beta,
            float* c, int ldc, const float* bias, Act act) {
  const bool simd = ActiveKind() == Kind::kSimd;
  if (obs::Metrics::enabled()) {
    // Every dense product funnels through here, so these counters are the
    // system-wide GEMM call/FLOP/dispatch ledger.
    static obs::Counter* const calls = obs::Metrics::GetCounter("gemm.calls");
    static obs::Counter* const flops = obs::Metrics::GetCounter("gemm.flops");
    static obs::Counter* const simd_calls =
        obs::Metrics::GetCounter("gemm.kernel.simd");
    static obs::Counter* const scalar_calls =
        obs::Metrics::GetCounter("gemm.kernel.scalar");
    calls->Increment();
    flops->Add(2ull * static_cast<uint64_t>(m) * static_cast<uint64_t>(n) *
               static_cast<uint64_t>(k));
    (simd ? simd_calls : scalar_calls)->Increment();
  }
  if (m == 0 || n == 0) return;
  const float* bp = b;
  int ldbp = ldb;
  if (trans_b == Trans::kYes && k > 0) {
    tls_pack_scratch.resize(static_cast<size_t>(n) * k);
    TransposePack(b, ldb, n, k, tls_pack_scratch.data());
    bp = tls_pack_scratch.data();
    ldbp = n;
  }
#if LNCL_GEMM_SIMD
  if (simd) {
    if (trans_a == Trans::kNo) {
      SimdGemmImpl<false>(m, n, k, alpha, a, lda, bp, ldbp, beta, c, ldc,
                          bias, act);
    } else {
      SimdGemmImpl<true>(m, n, k, alpha, a, lda, bp, ldbp, beta, c, ldc,
                         bias, act);
    }
    return;
  }
#else
  (void)simd;
#endif
  if (trans_a == Trans::kNo) {
    ScalarGemmImpl<false>(m, n, k, alpha, a, lda, bp, ldbp, beta, c, ldc,
                          bias, act);
  } else {
    ScalarGemmImpl<true>(m, n, k, alpha, a, lda, bp, ldbp, beta, c, ldc,
                         bias, act);
  }
}

void GemmInt8(int m, int n, int k, const float* a, int lda,
              const int8_t* b_kmajor, const float* scale, float* c, int ldc,
              const float* bias, Act act) {
  const bool simd = ActiveKind() == Kind::kSimd;
  if (obs::Metrics::enabled()) {
    static obs::Counter* const calls =
        obs::Metrics::GetCounter("gemm.int8.calls");
    static obs::Counter* const flops = obs::Metrics::GetCounter("gemm.flops");
    calls->Increment();
    flops->Add(2ull * static_cast<uint64_t>(m) * static_cast<uint64_t>(n) *
               static_cast<uint64_t>(k));
  }
  if (m == 0 || n == 0) return;
#if LNCL_GEMM_SIMD
  if (simd) {
    SimdGemmInt8Impl(m, n, k, a, lda, b_kmajor, scale, c, ldc, bias, act);
    return;
  }
#else
  (void)simd;
#endif
  ScalarGemmInt8Impl(m, n, k, a, lda, b_kmajor, scale, c, ldc, bias, act);
}

}  // namespace lncl::util::gemm
