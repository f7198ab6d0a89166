#pragma once

// Contract macros for the numeric invariants of the EM-alike loop.
//
// Two tiers share one failure sink (CheckFailure: stderr + abort, immune to
// the Logger threshold):
//
//  * LNCL_CHECK(cond)  — always on, release builds included. For cheap
//    structural contracts whose violation means the process must not
//    continue (missing model, corrupt serialization).
//  * LNCL_DCHECK / LNCL_AUDIT_* — compiled only under -DLNCL_AUDIT=ON
//    (CMake option; defines LNCL_AUDIT project-wide). Audit builds verify
//    the probabilistic invariants the type system cannot see:
//
//      LNCL_AUDIT_FINITE(x)          every entry finite (no NaN/inf) —
//                                    gradients, DP marginals, penalties
//      LNCL_AUDIT_SIMPLEX(x)         rows are probability simplexes
//                                    (q_a/q_b/q_f, Eqs. 8-10/13/15;
//                                    softmax outputs)
//      LNCL_AUDIT_ROW_STOCHASTIC(x)  annotator confusion rows sum to 1
//                                    after the Eq. 12 M-step
//      LNCL_AUDIT_SHAPE(m, r, c)     dimension contract at kernel entry
//      LNCL_DCHECK(cond)             generic audited condition
//
// When LNCL_AUDIT is off every macro expands to an unevaluated-operand
// no-op: zero code, zero reads, operands kept "used" so -Wall -Wextra
// -Werror builds stay clean either way. Audit builds must therefore be
// bit-identical in output to plain builds — the checks only read
// (scripts/check.sh's audit sweep runs determinism_test's golden hashes).

#include <string>
#include <vector>

namespace lncl::util {

class Matrix;

// Prints "CHECK failed at file:line: expr (detail)" to stderr — bypassing
// the Logger threshold so a failing invariant is never silent — and aborts.
[[noreturn]] void CheckFailure(const char* file, int line, const char* expr,
                               const std::string& detail = std::string());

namespace audit {

// Out-of-line bodies for the LNCL_AUDIT_* macros. Each aborts through
// CheckFailure with the offending index/value in the detail string.
void CheckFinite(float x, const char* expr, const char* file, int line);
void CheckFinite(double x, const char* expr, const char* file, int line);
void CheckFinite(const std::vector<float>& v, const char* expr,
                 const char* file, int line);
void CheckFinite(const Matrix& m, const char* expr, const char* file,
                 int line);
void CheckSimplex(const std::vector<float>& v, const char* expr,
                  const char* file, int line);
void CheckSimplex(const Matrix& m, const char* expr, const char* file,
                  int line);
void CheckRowStochastic(const Matrix& m, const char* expr, const char* file,
                        int line);
void CheckShape(const Matrix& m, int rows, int cols, const char* expr,
                const char* file, int line);

// Declared, never defined: the compiled-out macro forms wrap their operands
// in sizeof(Sink(...)), an unevaluated context, so expressions with side
// effects are neither executed nor warned about as unused.
template <typename... Ts>
int Sink(const Ts&...);

}  // namespace audit
}  // namespace lncl::util

#define LNCL_CHECK(cond)                                             \
  do {                                                               \
    if (!(cond)) {                                                   \
      ::lncl::util::CheckFailure(__FILE__, __LINE__, #cond);         \
    }                                                                \
  } while (0)

#if defined(LNCL_AUDIT)

#define LNCL_AUDIT_ENABLED 1

#define LNCL_DCHECK(cond)                                            \
  do {                                                               \
    if (!(cond)) {                                                   \
      ::lncl::util::CheckFailure(__FILE__, __LINE__, #cond);         \
    }                                                                \
  } while (0)

#define LNCL_AUDIT_FINITE(x) \
  ::lncl::util::audit::CheckFinite((x), #x, __FILE__, __LINE__)
#define LNCL_AUDIT_SIMPLEX(x) \
  ::lncl::util::audit::CheckSimplex((x), #x, __FILE__, __LINE__)
#define LNCL_AUDIT_ROW_STOCHASTIC(x) \
  ::lncl::util::audit::CheckRowStochastic((x), #x, __FILE__, __LINE__)
#define LNCL_AUDIT_SHAPE(m, rows, cols)                                   \
  ::lncl::util::audit::CheckShape((m), (rows), (cols), #m, __FILE__,      \
                                  __LINE__)

#else  // !LNCL_AUDIT

#define LNCL_AUDIT_ENABLED 0

#define LNCL_AUDIT_NOOP_(...) \
  static_cast<void>(sizeof(::lncl::util::audit::Sink(__VA_ARGS__)))

#define LNCL_DCHECK(cond) LNCL_AUDIT_NOOP_(cond)
#define LNCL_AUDIT_FINITE(x) LNCL_AUDIT_NOOP_(x)
#define LNCL_AUDIT_SIMPLEX(x) LNCL_AUDIT_NOOP_(x)
#define LNCL_AUDIT_ROW_STOCHASTIC(x) LNCL_AUDIT_NOOP_(x)
#define LNCL_AUDIT_SHAPE(m, rows, cols) LNCL_AUDIT_NOOP_(m, rows, cols)

#endif  // LNCL_AUDIT
