#pragma once

// Hardware-counter profiling over the EM loop's span tree.
//
// PerfCounters opens two perf_event_open groups per thread:
//
//   * hardware  — cycles, instructions, cache-references, cache-misses,
//                 branch-misses: the IPC / miss-rate attribution the span
//                 table is built from;
//   * software  — task-clock (ns on-CPU), page-faults, context-switches:
//                 available wherever the syscall itself is, including PMU-less
//                 VMs where every hardware event open fails with ENOENT.
//
// Degradation is graceful and layered: a failed hardware open (EACCES under
// perf_event_paranoid, ENOSYS in seccomp jails, ENOENT without a PMU) leaves
// that group unavailable — reads report zeros for its counters and one
// process-wide warning is printed — while the software group keeps counting,
// and vice versa. Nothing in the fit path ever depends on a counter value, so
// a profiled fit is bit-identical to a plain one (determinism_test pins the
// golden hashes of fits run inside Trace and Prof sessions).
//
// Prof is the session gate, mirroring Trace: the span hooks are always
// compiled in, and Prof::Start() arms them at runtime. While active, every
// PhaseSpan / TraceSpan reads the calling thread's groups at entry and exit
// and accumulates the delta into a per-span-name aggregate, so Stop() +
// WriteJson() yield cycles/IPC/miss-rate attribution for the whole
// fit→epoch→{m_step,confusion,e_step,dev_eval} tree. tools/prof_report.py
// joins this with the trace (self times) and the metrics snapshot (GEMM
// FLOPs → achieved GFLOP/s vs the BENCH_micro roofline) into the per-phase
// profiling table.
//
// Like the rest of obs/, this header is freestanding (standard library only)
// so util/ and bench/ can use it without dependency cycles. The raw
// syscall/procfs surface lives here and nowhere else — tools/lint.py's
// `prof` rule keeps perf_event_open and /proc reads out of the rest of the
// tree.

#include <cstdint>
#include <string>
#include <vector>

namespace lncl::obs {

// One reading (or delta) of both counter groups. Unavailable groups read 0.
struct CounterValues {
  // Hardware group.
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t cache_references = 0;
  uint64_t cache_misses = 0;
  uint64_t branch_misses = 0;
  // Software group.
  uint64_t task_clock_ns = 0;
  uint64_t page_faults = 0;
  uint64_t context_switches = 0;

  CounterValues& operator+=(const CounterValues& o);
  CounterValues operator-(const CounterValues& o) const;  // saturating at 0

  // Instructions per cycle; 0 when the hardware group is dark.
  double Ipc() const;
  // cache_misses / cache_references; 0 when the group is dark or idle.
  double CacheMissRate() const;
};

// Per-thread counter groups, opened lazily on first use and kept for the
// thread's lifetime (counters run continuously; callers difference two
// Read()s to attribute an interval).
class PerfCounters {
 public:
  // The calling thread's groups (opened on first call).
  static PerfCounters& PerThread();

  bool hw_available() const { return hw_fd_ >= 0; }
  bool sw_available() const { return sw_fd_ >= 0; }

  // Current cumulative values; multiplexing-scaled when the kernel had to
  // rotate the group (time_running < time_enabled). Zeros for dark groups.
  CounterValues Read() const;

  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

 private:
  PerfCounters();

  int hw_fd_ = -1;  // group leader (cycles); siblings close with the leader
  int sw_fd_ = -1;  // group leader (task-clock)
  std::vector<int> fds_;  // every open fd, for the destructor
};

namespace perf_internal {

// Test hook: when err != 0 every subsequent group open (on threads that have
// not opened yet) fails as if perf_event_open returned -1 with that errno.
// Tests use EACCES/ENOSYS to pin the graceful-degradation contract without
// needing a locked-down kernel.
void ForceOpenErrnoForTest(int err);

}  // namespace perf_internal

// Session gate + per-span aggregation. All methods are safe from any thread;
// RecordSpan is called by the span destructors in trace.h/cc.
class Prof {
 public:
  // Arms span attribution. False when a session is already active. Clears
  // aggregates.
  static bool Start();

  // Disarms. Aggregates survive until the next Start() so reporting can
  // happen after the measured region. False when no session was active.
  static bool Stop();

  static bool active();

  // True when the calling thread's group of that kind opened (forces the
  // open).
  static bool HwCountersAvailable();
  static bool SwCountersAvailable();

  struct SpanAgg {
    std::string name;
    uint64_t spans = 0;       // completed span count
    CounterValues totals;     // summed deltas
  };

  // Aggregates of the current/most-recent session, sorted by span name.
  static std::vector<SpanAgg> Snapshot();

  // Aggregate for one span name; zeros when the span never completed.
  static SpanAgg SnapshotSpan(const std::string& name);

  // Writes the session as JSON (schema lncl.prof.v1): availability flags
  // plus one object per span with raw counters, ipc, and cache_miss_rate.
  // False on I/O failure.
  static bool WriteJson(const std::string& path);

  // Span hook (internal). Accumulates a completed span's counter delta.
  static void RecordSpan(const char* name, const CounterValues& delta);
};

}  // namespace lncl::obs
