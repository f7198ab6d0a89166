#pragma once

// Trace-event spans over the EM loop, flushed as Chrome/Perfetto JSON.
//
// Spans are RAII scopes recorded into fixed-capacity per-thread buffers —
// recording never takes a lock: one release store per event, no allocation
// after a buffer's first event, so worker threads in the sharded
// E-step/M-step never serialize on telemetry. Trace::Stop() merges every thread's buffer
// into a `traceEvents` JSON array ("X" complete events, microsecond
// timestamps relative to session start, one tid per recording thread) that
// chrome://tracing and ui.perfetto.dev load directly.
//
// Spans are always compiled in; the runtime session (Trace::Start/Stop) is
// the switch, and an idle span costs one relaxed atomic load. Spans only
// observe: a traced fit is bit-identical to a plain one (determinism_test
// pins the golden hashes of fits run inside Trace and Prof sessions).
//
// PhaseSpan is the sibling that additionally accumulates
// its elapsed seconds into a caller-owned double. The Fit epoch loop uses
// it for the m_step / confusion / e_step / dev_eval phases, so
// LogicLnclResult::phase_seconds is derived from the very spans the trace
// shows instead of a parallel Stopwatch::Lap() bookkeeping chain.
//
// Prof is the second session gate, beside Trace. While a Prof session is
// active, every span (TraceSpan and PhaseSpan alike) also reads the calling
// thread's own OS accounting at entry and exit, its on-CPU time
// (CLOCK_THREAD_CPUTIME_ID) and its page faults (getrusage RUSAGE_THREAD),
// and adds the difference to a per-span-name aggregate. Prof::WriteJson()
// writes the aggregates (results/prof_*.json, schema lncl.prof.v1), and
// tools/prof_report.py puts each span's CPU time beside its wall time. Same
// bit-identity contract: the readings observe, they never steer.

#include <cstdint>
#include <string>

namespace lncl::obs {

class Trace {
 public:
  // Begins a recording session that will be written to `path` by Stop().
  // Returns false (and records nothing) when a session is already active.
  static bool Start(const std::string& path);

  // Ends the session and flushes the JSON file. Returns false when no
  // session was active or the file could not be written.
  static bool Stop();

  static bool active();

  // Events discarded because a thread's buffer filled (per session).
  static uint64_t dropped_events();
};

namespace trace_internal {

// Appends one complete event. ts/dur in microseconds since session start;
// arg_name may be null (no args object). name/arg_name must be string
// literals (stored as pointers, read at flush).
void RecordComplete(const char* name, double ts_us, double dur_us,
                    const char* arg_name, int64_t arg);

// Microseconds since the session started (0 when inactive).
double NowUs();

}  // namespace trace_internal

// One reading (or delta) of the calling thread's OS accounting.
struct CounterValues {
  uint64_t task_clock_ns = 0;  // on-CPU time
  uint64_t page_faults = 0;    // minor + major

  CounterValues& operator+=(const CounterValues& o);
  CounterValues operator-(const CounterValues& o) const;  // saturating at 0
};

// The calling thread's cumulative readings since it started.
CounterValues ReadThreadCounters();

// Session gate + per-span aggregation. All methods are safe from any thread;
// RecordSpan is called by the span destructors below.
class Prof {
 public:
  // Arms span attribution. False when a session is already active. Clears
  // aggregates.
  static bool Start();

  // Disarms. Aggregates survive until the next Start() so reporting can
  // happen after the measured region. False when no session was active.
  static bool Stop();

  static bool active();

  struct SpanAgg {
    std::string name;
    uint64_t spans = 0;       // completed span count
    CounterValues totals;     // summed deltas
  };

  // Aggregate for one span name; zeros when the span never completed.
  static SpanAgg SnapshotSpan(const std::string& name);

  // Writes the session as JSON (schema lncl.prof.v1): one object per span
  // name, sorted by name. False on I/O failure.
  static bool WriteJson(const std::string& path);

  // Span hook (internal). Accumulates a completed span's counter delta.
  static void RecordSpan(const char* name, const CounterValues& delta);
};

// RAII span: records a complete event covering its lifetime when a session
// is active at destruction time.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : TraceSpan(name, nullptr, 0) {}
  TraceSpan(const char* name, const char* arg_name, int64_t arg)
      : name_(name), arg_name_(arg_name), arg_(arg) {
    if (Trace::active()) start_us_ = trace_internal::NowUs();
    if (Prof::active()) {
      prof_start_ = ReadThreadCounters();
      prof_on_ = true;
    }
  }
  ~TraceSpan() {
    if (start_us_ >= 0.0 && Trace::active()) {
      trace_internal::RecordComplete(
          name_, start_us_, trace_internal::NowUs() - start_us_, arg_name_,
          arg_);
    }
    if (prof_on_ && Prof::active()) {
      Prof::RecordSpan(name_, ReadThreadCounters() - prof_start_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* arg_name_;
  int64_t arg_;
  double start_us_ = -1.0;
  CounterValues prof_start_;
  bool prof_on_ = false;
};

#define LNCL_TRACE_CONCAT_(a, b) a##b
#define LNCL_TRACE_CONCAT(a, b) LNCL_TRACE_CONCAT_(a, b)
#define LNCL_TRACE_SPAN(name) \
  ::lncl::obs::TraceSpan LNCL_TRACE_CONCAT(lncl_trace_span_, __LINE__)(name)
#define LNCL_TRACE_SPAN_ARG(name, arg_name, arg)                       \
  ::lncl::obs::TraceSpan LNCL_TRACE_CONCAT(lncl_trace_span_, __LINE__)( \
      name, arg_name, arg)

// Phase timer: always accumulates elapsed seconds into *accum on
// destruction (this is how PhaseSeconds is measured), and doubles as a
// trace span when a session is active.
class PhaseSpan {
 public:
  PhaseSpan(const char* name, double* accum);
  ~PhaseSpan();

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  const char* name_;
  double* accum_;
  int64_t start_ns_;
  double start_us_;  // trace timestamp; < 0 when not tracing
  CounterValues prof_start_;
  bool prof_on_ = false;
};

}  // namespace lncl::obs
