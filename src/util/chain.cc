#include "util/chain.h"
#include "util/check.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace lncl::util {

namespace {

// One value per lane: W doubles, W floats, and the W-wide integers a
// comparison of two double values yields. At width kChainLanes these are
// GCC/Clang vector extensions: each operator acts lane by lane with the
// IEEE semantics of its scalar form, and the target picks the registers
// (AVX-512, AVX2, SSE2 or scalar). At width 1 they are plain scalars, so
// the compiler vectorizes a lone chain's loops over its states instead.
// Vectors never pass by value (the lane helpers take references and
// pointers): a 64-byte vector argument changes the ABI without AVX-512
// (-Wpsabi).
template <int W>
struct Lanes;
template <>
struct Lanes<1> {
  using D = double;
  using F = float;
  using I = int64_t;
  using M = int32_t;
};
template <>
struct Lanes<kChainLanes> {
  typedef double D __attribute__((vector_size(8 * kChainLanes)));
  typedef float F __attribute__((vector_size(4 * kChainLanes)));
  typedef int64_t I __attribute__((vector_size(8 * kChainLanes)));
  // What a comparison of two F values yields.
  typedef int32_t M __attribute__((vector_size(4 * kChainLanes)));
};

// Lane l of a lane value; a scalar is its own only lane.
template <typename V>
auto GetLane(const V& v, [[maybe_unused]] int l) {
  if constexpr (std::is_arithmetic_v<V>) {
    return v;
  } else {
    return v[l];
  }
}

template <typename V, typename T>
void SetLane(V* v, [[maybe_unused]] int l, T x) {
  if constexpr (std::is_arithmetic_v<V>) {
    *v = x;
  } else {
    (*v)[l] = x;
  }
}

// *to = from's lanes as a wider value (float -> double).
template <typename To, typename From, size_t... L>
void Widen(const From& from, To* to, std::index_sequence<L...>) {
  *to = To{from[L]...};
}

// *to = from converted lane by lane (float <-> double). GCC 12 lowers
// __builtin_convertvector from 8 floats to 8 doubles as two half-width
// conversions and a lane insert; the lane list becomes one conversion.
template <typename To, typename From>
void Cast(const From& from, To* to) {
  if constexpr (std::is_arithmetic_v<From>) {
    *to = static_cast<To>(from);
  } else if constexpr (sizeof(To) > sizeof(From)) {
    Widen(from, to, std::make_index_sequence<kChainLanes>{});
  } else {
    *to = __builtin_convertvector(from, To);
  }
}

// Whether any lane of v is nonzero.
template <typename V>
bool AnyLane(const V& v) {
  if constexpr (std::is_arithmetic_v<V>) {
    return v != 0;
  } else {
    for (size_t l = 0; l < sizeof(V) / sizeof(v[0]); ++l) {
      if (v[l] != 0) return true;
    }
    return false;
  }
}

// out[i] = (float)(row[i] / divisor) for i < n, lane by lane, bit for bit,
// with one division per lane instead of n. q = row[i] * (1 / divisor) is
// the rounded quotient or one of its two neighbouring doubles (DESIGN.md
// §5 has the proof), so where the doubles just below and just above q
// round to the same float, so does the quotient, and that float is stored.
// Where they differ in any lane, a float rounding boundary lies within one
// double of q, and the whole step is redone by division. A zero row gives
// q == 0, whose lower neighbour is clamped to 0.
template <int W>
void Quotients(const typename Lanes<W>::D* row, size_t n,
               const typename Lanes<W>::D& divisor,
               typename Lanes<W>::F* out) {
  using D = typename Lanes<W>::D;
  using F = typename Lanes<W>::F;
  using I = typename Lanes<W>::I;
  // The proven bound, in doubles, between q and the rounded quotient.
  constexpr int64_t kWindow = 1;
  const D recip = (D{} + 1.0) / divisor;
  typename Lanes<W>::M near = {};
  for (size_t i = 0; i < n; ++i) {
    const D q = row[i] * recip;
    I bits;
    std::memcpy(&bits, &q, sizeof bits);
    I lo_bits = bits - kWindow;
    lo_bits = lo_bits < I{} ? I{} : lo_bits;
    const I hi_bits = bits + kWindow;
    D lo, hi;
    std::memcpy(&lo, &lo_bits, sizeof lo);
    std::memcpy(&hi, &hi_bits, sizeof hi);
    F f_lo, f_hi;
    Cast(lo, &f_lo);
    Cast(hi, &f_hi);
    near |= f_lo != f_hi;
    out[i] = f_lo;
  }
  if (AnyLane(near)) {
    for (size_t i = 0; i < n; ++i) Cast(row[i] / divisor, &out[i]);
  }
}

// One group's lane-major buffers, [step][state] of lane values: the
// emissions (then the gamma output), the alpha and beta messages, one
// step's K x K xi terms (or K gamma terms), every step's xi quotients and
// totals, the transitions widened to double in every lane, and one step's
// emissions widened to double. They only grow, so once a thread has seen
// its longest group a call does no heap work.
template <int W>
struct LaneScratch {
  std::vector<typename Lanes<W>::F> em;
  std::vector<typename Lanes<W>::D> alpha;
  std::vector<typename Lanes<W>::D> beta;
  std::vector<typename Lanes<W>::D> row;
  std::vector<typename Lanes<W>::F> xi;
  std::vector<typename Lanes<W>::D> total;
  std::vector<typename Lanes<W>::D> tr_wide;
  std::vector<typename Lanes<W>::D> em_wide;
};

template <typename T>
void Grow(std::vector<T>* v, size_t n) {
  if (v->size() < n) v->resize(n);
}

// Smooths chains [0, n) of `emissions` (n <= W) into `gammas`, lane l
// holding chain l. Every lane repeats the one-chain recursions operand for
// operand: the forward sums run over the previous state in ascending order
// from 0.0 and then meet the widened emission; the backward terms are
// (double)(transition * emission) * beta, the float product first; the xi
// terms are ((alpha * transition) * emission) * beta, totalled in
// row-major order; a row summing to <= 1e-300 becomes uniform; the gamma
// quotients are double divisions rounded to float, and the xi quotients
// are the same floats (Quotients).
template <int W>
void SmoothLanes(const Vector& prior, const Matrix& transition,
                 const Matrix* emissions, Matrix* gammas, int n,
                 Matrix* xi_sum) {
  using D = typename Lanes<W>::D;
  using F = typename Lanes<W>::F;
  using I = typename Lanes<W>::I;
  const int k = transition.rows();
  const size_t kk = static_cast<size_t>(k);
  int len[W] = {};
  int t_len = 0;
  for (int l = 0; l < n; ++l) {
    LNCL_DCHECK(emissions[l].cols() == k);
    len[l] = emissions[l].rows();
    t_len = std::max(t_len, len[l]);
  }

  thread_local LaneScratch<W> scratch;
  const size_t cells = static_cast<size_t>(t_len) * kk;
  Grow(&scratch.em, cells);
  Grow(&scratch.alpha, cells);
  Grow(&scratch.beta, cells);
  Grow(&scratch.row, kk * kk);
  Grow(&scratch.tr_wide, kk * kk);
  F* const em = scratch.em.data();
  D* const alpha = scratch.alpha.data();
  D* const beta = scratch.beta.data();
  D* const row = scratch.row.data();
  const float* const tr = transition.data();
  // (double)transition, exact, in every lane: the forward and xi terms
  // multiply by it.
  D* const tr_wide = scratch.tr_wide.data();
  for (size_t i = 0; i < kk * kk; ++i) {
    tr_wide[i] = D{} + static_cast<double>(tr[i]);
  }

  // Gather the emissions lane-major, padding past each chain's end with 1
  // (lanes l >= n hold no chain and are all padding). Only then resize the
  // outputs: gammas[l] may be emissions[l].
  for (int l = 0; l < W; ++l) {
    const size_t end = static_cast<size_t>(len[l]) * kk;
    const float* const src = l < n ? emissions[l].data() : nullptr;
    for (size_t i = 0; i < end; ++i) SetLane(&em[i], l, src[i]);
    for (size_t i = end; i < cells; ++i) SetLane(&em[i], l, 1.0f);
  }
  for (int l = 0; l < n; ++l) gammas[l].ResizeNoZero(len[l], k);
  if (t_len == 0) return;

  const D ones = D{} + 1.0;
  const D uniform = D{} + 1.0 / k;
  const auto normalize = [k, &ones, &uniform](D* v) {
    D sum = {};
    for (int m = 0; m < k; ++m) sum += v[m];
    // The quotient of a uniform lane is discarded; dividing it by 1 keeps
    // a 0/0 out of the lanes.
    const I tiny = sum <= 1e-300;
    const D divisor = tiny ? ones : sum;
    for (int m = 0; m < k; ++m) v[m] = tiny ? uniform : v[m] / divisor;
  };

  // prior * emission is a float product, widened afterwards.
  for (int m = 0; m < k; ++m) Cast(prior[m] * em[m], &alpha[m]);
  normalize(alpha);
  for (int t = 1; t < t_len; ++t) {
    const D* prev = alpha + (t - 1) * kk;
    D* cur = alpha + t * kk;
    const F* em_t = em + t * kk;
    for (int b = 0; b < k; ++b) {
      D s = {};
      for (int a = 0; a < k; ++a) {
        s += prev[a] * tr_wide[a * kk + b];
      }
      D e = {};
      Cast(em_t[b], &e);
      cur[b] = s * e;
    }
    normalize(cur);
  }

  // A lane's beta is exactly 1 from its chain's last step on, so its
  // padding never reaches its own steps.
  I last = {};
  for (int l = 0; l < W; ++l) SetLane(&last, l, len[l] - 1);
  std::fill_n(beta + (t_len - 1) * kk, kk, ones);
  for (int t = t_len - 2; t >= 0; --t) {
    const D* next = beta + (t + 1) * kk;
    const F* em_next = em + (t + 1) * kk;
    D* cur = beta + t * kk;
    for (int a = 0; a < k; ++a) {
      const float* tr_a = tr + a * kk;
      D s = {};
      for (int b = 0; b < k; ++b) {
        // transition * emission stays a float product: widening it to
        // double first would change the bits.
        D product = {};
        Cast(tr_a[b] * em_next[b], &product);
        s += product * next[b];
      }
      cur[a] = s;
    }
    normalize(cur);
    const I pinned = t >= last;
    for (int a = 0; a < k; ++a) cur[a] = pinned ? ones : cur[a];
  }

  if (xi_sum != nullptr) {
    LNCL_DCHECK(xi_sum->rows() == k && xi_sum->cols() == k);
    Grow(&scratch.xi, cells * kk);
    Grow(&scratch.total, static_cast<size_t>(t_len));
    Grow(&scratch.em_wide, kk);
    F* const xi = scratch.xi.data();
    D* const total = scratch.total.data();
    D* const em_wide = scratch.em_wide.data();
    for (int t = 0; t + 1 < t_len; ++t) {
      const D* al = alpha + t * kk;
      const F* em_next = em + (t + 1) * kk;
      const D* be_next = beta + (t + 1) * kk;
      for (int b = 0; b < k; ++b) Cast(em_next[b], &em_wide[b]);
      D sum = {};
      for (int a = 0; a < k; ++a) {
        for (int b = 0; b < k; ++b) {
          const D v =
              al[a] * tr_wide[a * kk + b] * em_wide[b] * be_next[b];
          row[a * kk + b] = v;
          sum += v;
        }
      }
      total[t] = sum;
      // A step whose total is <= 1e-300 adds nothing (below); dividing its
      // lane by 1 keeps a 0/0 out of the float conversion.
      const D divisor = sum <= 1e-300 ? ones : sum;
      Quotients<W>(row, kk * kk, divisor, xi + t * kk * kk);
    }
    // Chain by chain, then step by step: the float sums of one-chain calls
    // made in batch order.
    float* const xs = xi_sum->data();
    for (int l = 0; l < n; ++l) {
      for (int t = 0; t + 1 < len[l]; ++t) {
        if (GetLane(total[t], l) <= 1e-300) continue;
        const F* xi_t = xi + t * kk * kk;
        for (size_t i = 0; i < kk * kk; ++i) xs[i] += GetLane(xi_t[i], l);
      }
    }
  }

  // Gamma overwrites the lane-major emissions, which no pass reads any
  // more, and is then scattered to the chains.
  for (int t = 0; t < t_len; ++t) {
    const D* al = alpha + t * kk;
    const D* be = beta + t * kk;
    for (int m = 0; m < k; ++m) row[m] = al[m] * be[m];
    normalize(row);
    F* const out = em + t * kk;
    for (int m = 0; m < k; ++m) Cast(row[m], &out[m]);
  }
  for (int l = 0; l < n; ++l) {
    float* const out = gammas[l].data();
    const size_t end = static_cast<size_t>(len[l]) * kk;
    for (size_t i = 0; i < end; ++i) out[i] = GetLane(em[i], l);
  }
}

}  // namespace

void ChainForwardBackward(const Vector& prior, const Matrix& transition,
                          std::span<const Matrix> emissions,
                          std::span<Matrix> gammas, Matrix* xi_sum) {
  LNCL_DCHECK(gammas.size() == emissions.size());
  LNCL_DCHECK(transition.rows() == transition.cols());
  LNCL_DCHECK(static_cast<int>(prior.size()) == transition.rows());
  const size_t num_chains = emissions.size();
  for (size_t g = 0; g < num_chains; g += kChainLanes) {
    const int n = static_cast<int>(
        std::min<size_t>(kChainLanes, num_chains - g));
    if (n == 1) {
      SmoothLanes<1>(prior, transition, &emissions[g], &gammas[g], n, xi_sum);
    } else {
      SmoothLanes<kChainLanes>(prior, transition, &emissions[g], &gammas[g],
                               n, xi_sum);
    }
  }
}

void ChainQuotients(std::span<const double> rows,
                    std::span<const double> divisors, std::span<float> out) {
  const size_t steps = divisors.size();
  LNCL_CHECK(out.size() == rows.size() &&
             (steps == 0 ? rows.empty() : rows.size() % steps == 0));
  if (steps == 0) return;
  const size_t n = rows.size() / steps;
  using L = Lanes<kChainLanes>;
  std::vector<L::D> row(n);
  std::vector<L::F> q(n);
  size_t j = 0;
  for (; j + kChainLanes <= steps; j += kChainLanes) {
    L::D divisor;
    for (int l = 0; l < kChainLanes; ++l) {
      SetLane(&divisor, l, divisors[j + l]);
      for (size_t i = 0; i < n; ++i) {
        SetLane(&row[i], l, rows[(j + l) * n + i]);
      }
    }
    Quotients<kChainLanes>(row.data(), n, divisor, q.data());
    for (int l = 0; l < kChainLanes; ++l) {
      for (size_t i = 0; i < n; ++i) out[(j + l) * n + i] = GetLane(q[i], l);
    }
  }
  for (; j < steps; ++j) {
    Quotients<1>(&rows[j * n], n, divisors[j], &out[j * n]);
  }
}

void ChainViterbi(const Vector& prior, const Matrix& transition,
                  const Matrix& emission, std::vector<int>* path) {
  const int t_len = emission.rows();
  const int k = emission.cols();
  path->assign(t_len, 0);
  if (t_len == 0) return;
  auto safe_log = [](double v) { return std::log(std::max(v, 1e-300)); };
  std::vector<std::vector<double>> delta(t_len, std::vector<double>(k));
  std::vector<std::vector<int>> back(t_len, std::vector<int>(k, 0));
  for (int m = 0; m < k; ++m) {
    delta[0][m] = safe_log(prior[m]) + safe_log(emission(0, m));
  }
  for (int t = 1; t < t_len; ++t) {
    for (int b = 0; b < k; ++b) {
      double best = -1e300;
      int arg = 0;
      for (int a = 0; a < k; ++a) {
        const double v = delta[t - 1][a] + safe_log(transition(a, b));
        if (v > best) {
          best = v;
          arg = a;
        }
      }
      delta[t][b] = best + safe_log(emission(t, b));
      back[t][b] = arg;
    }
  }
  int cur = 0;
  double best = -1e300;
  for (int m = 0; m < k; ++m) {
    if (delta[t_len - 1][m] > best) {
      best = delta[t_len - 1][m];
      cur = m;
    }
  }
  for (int t = t_len - 1; t >= 0; --t) {
    (*path)[t] = cur;
    cur = back[t][cur];
  }
}

}  // namespace lncl::util
