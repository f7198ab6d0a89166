#include "obs/perf_counters.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace lncl::obs {

// ---------------------------------------------------------------------------
// CounterValues
// ---------------------------------------------------------------------------

CounterValues& CounterValues::operator+=(const CounterValues& o) {
  cycles += o.cycles;
  instructions += o.instructions;
  cache_references += o.cache_references;
  cache_misses += o.cache_misses;
  branch_misses += o.branch_misses;
  task_clock_ns += o.task_clock_ns;
  page_faults += o.page_faults;
  context_switches += o.context_switches;
  return *this;
}

namespace {

uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

CounterValues CounterValues::operator-(const CounterValues& o) const {
  CounterValues d;
  d.cycles = SatSub(cycles, o.cycles);
  d.instructions = SatSub(instructions, o.instructions);
  d.cache_references = SatSub(cache_references, o.cache_references);
  d.cache_misses = SatSub(cache_misses, o.cache_misses);
  d.branch_misses = SatSub(branch_misses, o.branch_misses);
  d.task_clock_ns = SatSub(task_clock_ns, o.task_clock_ns);
  d.page_faults = SatSub(page_faults, o.page_faults);
  d.context_switches = SatSub(context_switches, o.context_switches);
  return d;
}

double CounterValues::Ipc() const {
  return cycles == 0 ? 0.0
                     : static_cast<double>(instructions) /
                           static_cast<double>(cycles);
}

double CounterValues::CacheMissRate() const {
  return cache_references == 0 ? 0.0
                               : static_cast<double>(cache_misses) /
                                     static_cast<double>(cache_references);
}

// ---------------------------------------------------------------------------
// PerfCounters
// ---------------------------------------------------------------------------

namespace {

// Test hook state + process-wide availability summary (what any thread saw).
std::atomic<int> g_forced_open_errno{0};
std::atomic<bool> g_hw_warned{false};
std::atomic<bool> g_sw_warned{false};
std::atomic<bool> g_hw_ever_available{false};
std::atomic<bool> g_sw_ever_available{false};

void WarnOnce(std::atomic<bool>* flag, const char* group, int err) {
  bool expected = false;
  if (!flag->compare_exchange_strong(expected, true)) return;
  std::fprintf(  // lint: allow(io)
      stderr,
      "[obs] perf %s counters unavailable (%s); recording zeros for them\n",
      group, std::strerror(err));
}

#if defined(__linux__)

long PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                   unsigned long flags) {
  const int forced = g_forced_open_errno.load(std::memory_order_relaxed);
  if (forced != 0) {
    errno = forced;
    return -1;
  }
  return syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags);
}

perf_event_attr MakeAttr(uint32_t type, uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = type;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;  // measurable even under perf_event_paranoid=2
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return attr;
}

struct EventSpec {
  uint32_t type;
  uint64_t config;
};

// Opens one all-or-nothing group for the calling thread. Returns the leader
// fd or -1; appends every opened fd to *fds. A partially-openable group is
// closed and reported dark rather than silently remapping counter slots.
int OpenGroup(const EventSpec* specs, int n, std::vector<int>* fds,
              int* out_errno) {
  int leader = -1;
  std::vector<int> opened;
  for (int i = 0; i < n; ++i) {
    perf_event_attr attr = MakeAttr(specs[i].type, specs[i].config);
    // Start the leader disabled so the whole group enables atomically once
    // every sibling is attached.
    if (i == 0) attr.disabled = 1;
    const long fd =
        PerfEventOpen(&attr, /*pid=*/0, /*cpu=*/-1, leader, /*flags=*/0);
    if (fd < 0) {
      *out_errno = errno;
      for (const int f : opened) close(f);
      return -1;
    }
    opened.push_back(static_cast<int>(fd));
    if (i == 0) leader = static_cast<int>(fd);
  }
  ioctl(leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  fds->insert(fds->end(), opened.begin(), opened.end());
  return leader;
}

// PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, value[nr].
// Values are multiplexing-scaled by enabled/running when the kernel rotated
// the group off the PMU.
bool ReadGroup(int leader, int n, uint64_t* out) {
  const int header = 3;
  uint64_t buf[3 + 8] = {0};
  const ssize_t want =
      static_cast<ssize_t>(sizeof(uint64_t)) * (header + n);
  const ssize_t got = read(leader, buf, static_cast<size_t>(want));
  if (got < want || buf[0] != static_cast<uint64_t>(n)) return false;
  const uint64_t enabled = buf[1];
  const uint64_t running = buf[2];
  for (int i = 0; i < n; ++i) {
    uint64_t v = buf[header + i];
    if (running != 0 && running < enabled) {
      const double scaled = static_cast<double>(v) *
                            (static_cast<double>(enabled) /
                             static_cast<double>(running));
      v = static_cast<uint64_t>(std::llround(scaled));
    }
    out[i] = v;
  }
  return true;
}

#endif  // defined(__linux__)

}  // namespace

PerfCounters::PerfCounters() {
#if defined(__linux__)
  static const EventSpec kHwEvents[] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
  };
  static const EventSpec kSwEvents[] = {
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS},
      {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES},
  };
  int err = 0;
  hw_fd_ = OpenGroup(kHwEvents, 5, &fds_, &err);
  if (hw_fd_ < 0) {
    WarnOnce(&g_hw_warned, "hardware", err);
  } else {
    g_hw_ever_available.store(true, std::memory_order_relaxed);
  }
  sw_fd_ = OpenGroup(kSwEvents, 3, &fds_, &err);
  if (sw_fd_ < 0) {
    WarnOnce(&g_sw_warned, "software", err);
  } else {
    g_sw_ever_available.store(true, std::memory_order_relaxed);
  }
#else
  WarnOnce(&g_hw_warned, "hardware", ENOSYS);
  WarnOnce(&g_sw_warned, "software", ENOSYS);
#endif
}

PerfCounters::~PerfCounters() {
#if defined(__linux__)
  for (const int fd : fds_) close(fd);
#endif
}

PerfCounters& PerfCounters::PerThread() {
  thread_local PerfCounters counters;
  return counters;
}

CounterValues PerfCounters::Read() const {
  CounterValues v;
#if defined(__linux__)
  if (hw_fd_ >= 0) {
    uint64_t hw[5] = {0};
    if (ReadGroup(hw_fd_, 5, hw)) {
      v.cycles = hw[0];
      v.instructions = hw[1];
      v.cache_references = hw[2];
      v.cache_misses = hw[3];
      v.branch_misses = hw[4];
    }
  }
  if (sw_fd_ >= 0) {
    uint64_t sw[3] = {0};
    if (ReadGroup(sw_fd_, 3, sw)) {
      v.task_clock_ns = sw[0];  // PERF_COUNT_SW_TASK_CLOCK reports ns
      v.page_faults = sw[1];
      v.context_switches = sw[2];
    }
  }
#endif
  return v;
}

namespace perf_internal {

void ForceOpenErrnoForTest(int err) {
  g_forced_open_errno.store(err, std::memory_order_relaxed);
}

}  // namespace perf_internal

// ---------------------------------------------------------------------------
// Prof
// ---------------------------------------------------------------------------

namespace {

struct ProfState {
  std::mutex mu;
  std::map<std::string, Prof::SpanAgg> spans;
};

ProfState& GetProfState() {
  // Leaked singleton: span destructors may run during static teardown.
  static ProfState* state = new ProfState();
  return *state;
}

std::atomic<bool> g_prof_active{false};

}  // namespace

bool Prof::Start() {
  bool expected = false;
  if (!g_prof_active.compare_exchange_strong(expected, true)) return false;
  {
    ProfState& state = GetProfState();
    std::lock_guard<std::mutex> lock(state.mu);
    state.spans.clear();
  }
  // Open the calling thread's groups up front so availability (and the
  // one-time warning) surfaces at session start, not mid-fit.
  PerfCounters::PerThread();
  return true;
}

bool Prof::Stop() {
  bool expected = true;
  return g_prof_active.compare_exchange_strong(expected, false);
}

bool Prof::active() {
  return g_prof_active.load(std::memory_order_relaxed);
}

bool Prof::HwCountersAvailable() {
  return PerfCounters::PerThread().hw_available();
}

bool Prof::SwCountersAvailable() {
  return PerfCounters::PerThread().sw_available();
}

void Prof::RecordSpan(const char* name, const CounterValues& delta) {
  ProfState& state = GetProfState();
  std::lock_guard<std::mutex> lock(state.mu);
  Prof::SpanAgg& agg = state.spans[name];
  if (agg.name.empty()) agg.name = name;
  agg.spans += 1;
  agg.totals += delta;
}

std::vector<Prof::SpanAgg> Prof::Snapshot() {
  ProfState& state = GetProfState();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<SpanAgg> out;
  out.reserve(state.spans.size());
  for (const auto& [name, agg] : state.spans) out.push_back(agg);
  return out;  // std::map iteration is already name-sorted
}

Prof::SpanAgg Prof::SnapshotSpan(const std::string& name) {
  ProfState& state = GetProfState();
  std::lock_guard<std::mutex> lock(state.mu);
  const auto it = state.spans.find(name);
  if (it == state.spans.end()) {
    SpanAgg empty;
    empty.name = name;
    return empty;
  }
  return it->second;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool Prof::WriteJson(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  const bool hw = g_hw_ever_available.load(std::memory_order_relaxed);
  const bool sw = g_sw_ever_available.load(std::memory_order_relaxed);
  os << "{\n";
  os << "  \"schema\": \"lncl.prof.v1\",\n";
  os << "  \"hw_counters_available\": " << (hw ? "true" : "false") << ",\n";
  os << "  \"sw_counters_available\": " << (sw ? "true" : "false") << ",\n";
  os << "  \"spans\": {\n";
  const std::vector<SpanAgg> spans = Snapshot();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanAgg& a = spans[i];
    const CounterValues& t = a.totals;
    os << "    \"" << JsonEscape(a.name) << "\": {"
       << "\"spans\": " << a.spans << ", \"cycles\": " << t.cycles
       << ", \"instructions\": " << t.instructions
       << ", \"cache_references\": " << t.cache_references
       << ", \"cache_misses\": " << t.cache_misses
       << ", \"branch_misses\": " << t.branch_misses
       << ", \"task_clock_ns\": " << t.task_clock_ns
       << ", \"page_faults\": " << t.page_faults
       << ", \"context_switches\": " << t.context_switches
       << ", \"ipc\": " << t.Ipc()
       << ", \"cache_miss_rate\": " << t.CacheMissRate() << "}"
       << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  os << "  }\n";
  os << "}\n";
  return static_cast<bool>(os);
}

}  // namespace lncl::obs
