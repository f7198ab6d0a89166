#include "obs/trace.h"

#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

namespace lncl::obs {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Per-thread event capacity. 1<<16 complete events cover a paper-scale fit
// (a few spans per minibatch/slot/epoch) with room to spare; overflow is
// counted and reported, never reallocated — the buffer's data pointer must
// stay stable so flushing can read it without taking a lock.
constexpr size_t kBufferCapacity = size_t{1} << 16;

struct Event {
  const char* name;
  const char* arg_name;  // nullptr = no args object
  int64_t arg;
  double ts_us;
  double dur_us;
};

struct ThreadBuffer {
  int tid = 0;
  std::vector<Event> events;      // reserved once, never reallocated
  std::atomic<size_t> count{0};   // published size; release on write
  std::atomic<uint64_t> dropped{0};
};

struct TraceState {
  std::mutex mu;  // guards buffer registration and session start/stop
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // never shrunk
  std::string path;
  std::atomic<bool> active{false};
  std::atomic<int64_t> session_start_ns{0};
  int next_tid = 0;
};

TraceState& GetState() {
  static TraceState* s = new TraceState();
  return *s;
}

ThreadBuffer& GetThreadBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    TraceState& st = GetState();
    std::lock_guard<std::mutex> lock(st.mu);
    st.buffers.push_back(std::make_unique<ThreadBuffer>());
    st.buffers.back()->tid = st.next_tid++;
    return st.buffers.back().get();
  }();
  return *buffer;
}

std::string FormatUs(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return std::string(buf);
}

}  // namespace

namespace trace_internal {

double NowUs() {
  TraceState& st = GetState();
  const int64_t start = st.session_start_ns.load(std::memory_order_relaxed);
  return static_cast<double>(NowNs() - start) * 1e-3;
}

void RecordComplete(const char* name, double ts_us, double dur_us,
                    const char* arg_name, int64_t arg) {
  ThreadBuffer& buffer = GetThreadBuffer();
  if (buffer.events.capacity() == 0) buffer.events.reserve(kBufferCapacity);
  const size_t n = buffer.count.load(std::memory_order_relaxed);
  if (n >= kBufferCapacity) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.events.push_back(Event{name, arg_name, arg, ts_us, dur_us});
  // Publish: the flush thread reads `count` with acquire and only touches
  // events below it, so the push above happens-before any read of the slot.
  buffer.count.store(n + 1, std::memory_order_release);
}

}  // namespace trace_internal

bool Trace::Start(const std::string& path) {
  TraceState& st = GetState();
  std::lock_guard<std::mutex> lock(st.mu);
  if (st.active.load(std::memory_order_relaxed)) return false;
  st.path = path;
  for (auto& buffer : st.buffers) {
    buffer->events.clear();
    buffer->count.store(0, std::memory_order_relaxed);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
  st.session_start_ns.store(NowNs(), std::memory_order_relaxed);
  st.active.store(true, std::memory_order_seq_cst);
  return true;
}

bool Trace::Stop() {
  TraceState& st = GetState();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.active.load(std::memory_order_relaxed)) return false;
  // Spans that race with Stop() re-check `active` before recording; any
  // event published after the flush reads a buffer's count is simply left
  // behind (and cleared by the next Start).
  st.active.store(false, std::memory_order_seq_cst);

  std::ofstream os(st.path);
  if (!os) return false;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& buffer : st.buffers) {
    const size_t n = buffer->count.load(std::memory_order_acquire);
    if (n == 0) continue;
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << buffer->tid << ", \"args\": {\"name\": \"track-" << buffer->tid
       << "\"}}";
    for (size_t i = 0; i < n; ++i) {
      const Event& e = buffer->events[i];
      os << ",\n{\"name\": \"" << e.name << "\", \"ph\": \"X\", \"ts\": "
         << FormatUs(e.ts_us) << ", \"dur\": " << FormatUs(e.dur_us)
         << ", \"pid\": 1, \"tid\": " << buffer->tid;
      if (e.arg_name != nullptr) {
        os << ", \"args\": {\"" << e.arg_name << "\": " << e.arg << "}";
      }
      os << "}";
    }
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(os);
}

bool Trace::active() {
  return GetState().active.load(std::memory_order_relaxed);
}

uint64_t Trace::dropped_events() {
  TraceState& st = GetState();
  std::lock_guard<std::mutex> lock(st.mu);
  uint64_t dropped = 0;
  for (const auto& buffer : st.buffers) {
    dropped += buffer->dropped.load(std::memory_order_relaxed);
  }
  return dropped;
}

namespace {

uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

struct ProfState {
  std::mutex mu;
  std::map<std::string, Prof::SpanAgg> spans;  // name-sorted
};

ProfState& GetProfState() {
  // Leaked singleton: span destructors may run during static teardown.
  static ProfState* state = new ProfState();
  return *state;
}

std::atomic<bool> g_prof_active{false};

}  // namespace

CounterValues& CounterValues::operator+=(const CounterValues& o) {
  task_clock_ns += o.task_clock_ns;
  page_faults += o.page_faults;
  return *this;
}

CounterValues CounterValues::operator-(const CounterValues& o) const {
  CounterValues d;
  d.task_clock_ns = SatSub(task_clock_ns, o.task_clock_ns);
  d.page_faults = SatSub(page_faults, o.page_faults);
  return d;
}

// Time comes from the thread's CPU clock, one nanosecond count, rather than
// getrusage's microsecond utime + stime pair.
CounterValues ReadThreadCounters() {
  CounterValues v;
  timespec cpu{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu) == 0) {
    v.task_clock_ns = static_cast<uint64_t>(cpu.tv_sec) * 1000000000u +
                      static_cast<uint64_t>(cpu.tv_nsec);
  }
  rusage usage{};
  if (getrusage(RUSAGE_THREAD, &usage) == 0) {
    v.page_faults = static_cast<uint64_t>(usage.ru_minflt) +
                    static_cast<uint64_t>(usage.ru_majflt);
  }
  return v;
}

bool Prof::Start() {
  bool expected = false;
  if (!g_prof_active.compare_exchange_strong(expected, true)) return false;
  ProfState& state = GetProfState();
  std::lock_guard<std::mutex> lock(state.mu);
  state.spans.clear();
  return true;
}

bool Prof::Stop() {
  bool expected = true;
  return g_prof_active.compare_exchange_strong(expected, false);
}

bool Prof::active() { return g_prof_active.load(std::memory_order_relaxed); }

void Prof::RecordSpan(const char* name, const CounterValues& delta) {
  ProfState& state = GetProfState();
  std::lock_guard<std::mutex> lock(state.mu);
  SpanAgg& agg = state.spans[name];
  if (agg.name.empty()) agg.name = name;
  agg.spans += 1;
  agg.totals += delta;
}

Prof::SpanAgg Prof::SnapshotSpan(const std::string& name) {
  ProfState& state = GetProfState();
  std::lock_guard<std::mutex> lock(state.mu);
  const auto it = state.spans.find(name);
  if (it != state.spans.end()) return it->second;
  SpanAgg empty;
  empty.name = name;
  return empty;
}

bool Prof::WriteJson(const std::string& path) {
  std::map<std::string, SpanAgg> spans;
  {
    ProfState& state = GetProfState();
    std::lock_guard<std::mutex> lock(state.mu);
    spans = state.spans;
  }
  std::ofstream os(path);
  if (!os) return false;
  // Span names are string literals of the code, written unescaped as in the
  // trace.
  os << "{\n  \"schema\": \"lncl.prof.v1\",\n  \"spans\": {";
  const char* sep = "\n";
  for (const auto& [name, agg] : spans) {
    os << sep << "    \"" << name << "\": {\"spans\": " << agg.spans
       << ", \"task_clock_ns\": " << agg.totals.task_clock_ns
       << ", \"page_faults\": " << agg.totals.page_faults << "}";
    sep = ",\n";
  }
  os << "\n  }\n}\n";
  return static_cast<bool>(os);
}

PhaseSpan::PhaseSpan(const char* name, double* accum)
    : name_(name), accum_(accum), start_ns_(NowNs()), start_us_(-1.0) {
  if (Trace::active()) start_us_ = trace_internal::NowUs();
  if (Prof::active()) {
    prof_start_ = ReadThreadCounters();
    prof_on_ = true;
  }
}

PhaseSpan::~PhaseSpan() {
  *accum_ += static_cast<double>(NowNs() - start_ns_) * 1e-9;
  if (start_us_ >= 0.0 && Trace::active()) {
    trace_internal::RecordComplete(
        name_, start_us_, trace_internal::NowUs() - start_us_, nullptr, 0);
  }
  if (prof_on_ && Prof::active()) {
    Prof::RecordSpan(name_, ReadThreadCounters() - prof_start_);
  }
}

}  // namespace lncl::obs
