#include "bench_history.h"

#include <cctype>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/mem_stats.h"
#include "obs/trace.h"
#include "util/check.h"

namespace lncl::bench {

namespace {

bool IsHex(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return false;
  }
  return true;
}

std::string ReadFirstLine(const std::filesystem::path& path) {
  std::ifstream is(path);
  std::string line;
  if (is) std::getline(is, line);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

// Resolves `ref` ("refs/heads/main") to its commit: a loose ref in the git
// dir or the common dir, then a packed ref of the common dir.
std::string ResolveRef(const std::filesystem::path& git_dir,
                       const std::filesystem::path& common_dir,
                       const std::string& ref) {
  for (const std::filesystem::path& dir : {git_dir, common_dir}) {
    const std::string loose = ReadFirstLine(dir / ref);
    if (IsHex(loose) && loose.size() >= 12) return loose.substr(0, 12);
  }
  std::ifstream packed(common_dir / "packed-refs");
  std::string line;
  while (packed && std::getline(packed, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '^') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    if (line.substr(space + 1) == ref && IsHex(line.substr(0, space)) &&
        space >= 12) {
      return line.substr(0, 12);
    }
  }
  return "unknown";
}

// Revision checked out in `git_dir`. A worktree's git dir names the main
// repository's in its `commondir` file, which holds the shared refs.
std::string RevisionOf(const std::filesystem::path& git_dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(git_dir, ec)) return "unknown";
  std::filesystem::path common_dir = git_dir;
  const std::string common = ReadFirstLine(git_dir / "commondir");
  if (!common.empty()) {
    common_dir = std::filesystem::path(common).is_absolute()
                     ? std::filesystem::path(common)
                     : git_dir / common;
  }
  const std::string head = ReadFirstLine(git_dir / "HEAD");
  if (head.rfind("ref: ", 0) == 0) {
    return ResolveRef(git_dir, common_dir, head.substr(5));
  }
  return IsHex(head) && head.size() >= 12 ? head.substr(0, 12) : "unknown";
}

}  // namespace

std::string GitRevision() {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::current_path(ec);
  if (ec) return "unknown";
  for (; !dir.empty(); dir = dir.parent_path()) {
    const std::filesystem::path dot_git = dir / ".git";
    if (std::filesystem::is_directory(dot_git, ec)) return RevisionOf(dot_git);
    if (std::filesystem::exists(dot_git, ec)) {
      // A worktree or submodule: .git is a file naming the git dir. It
      // belongs to this checkout, so the walk stops here either way.
      const std::string line = ReadFirstLine(dot_git);
      if (line.rfind("gitdir: ", 0) != 0) return "unknown";
      const std::filesystem::path target(line.substr(8));
      return RevisionOf(target.is_absolute() ? target : dir / target);
    }
    if (dir == dir.parent_path()) break;
  }
  return "unknown";
}

namespace {

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void WriteCounters(std::ostream& os, const obs::Prof::SpanAgg& agg) {
  const obs::CounterValues& t = agg.totals;
  os << "{\"spans\": " << agg.spans
     << ", \"task_clock_ns\": " << t.task_clock_ns
     << ", \"page_faults\": " << t.page_faults << "}";
}

}  // namespace

bool AppendBenchHistory(const std::string& id, double wall_seconds,
                        const core::LogicLnclResult* fit,
                        const Int8Gate* int8,
                        const std::vector<ShapeCheck>* checks,
                        const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream os(path, std::ios::app);
  if (!os) {
    std::cout << "[failed to append bench history to " << path << "]\n";
    return false;
  }
  // The "fit" PhaseSpan aggregate is the headline counter set: it covers
  // exactly the timed end-to-end fit a Prof session bracketed.
  const obs::Prof::SpanAgg fit_counters = obs::Prof::SnapshotSpan("fit");
  const obs::MemSample mem = obs::ReadSelfStatus();
  os << "{\"schema\": \"lncl.bench.v1\", \"bench\": \"" << id << "\""
     << ", \"unix_time\": " << static_cast<long long>(std::time(nullptr))
     << ", \"git_rev\": \"" << GitRevision() << "\""
     << ", \"host\": \"" << obs::HostFingerprint() << "\""
     << ", \"audit\": " << (LNCL_AUDIT_ENABLED ? "true" : "false")
     << ", \"prof_active\": "
     << (fit_counters.spans > 0 ? "true" : "false")
     << ", \"peak_rss_kb\": " << (mem.ok ? mem.vm_hwm_kb : 0)
     << ", \"wall_seconds\": " << Num(wall_seconds) << ", \"counters\": ";
  WriteCounters(os, fit_counters);
  os << ", \"fits\": [";
  if (fit != nullptr) {
    const core::PhaseSeconds& p = fit->phase_seconds;
    os << "{\"mode\": \"batched\""
       << ", \"digest\": \"" << FitDigest(*fit) << "\""
       << ", \"fit_seconds\": " << Num(p.total)
       << ", \"phase_seconds\": {\"m_step\": " << Num(p.m_step)
       << ", \"confusion\": " << Num(p.confusion)
       << ", \"e_step\": " << Num(p.e_step)
       << ", \"dev_eval\": " << Num(p.dev_eval) << "}}";
  }
  os << "]";
  if (checks != nullptr) {
    os << ", \"shape_checks\": [";
    for (size_t i = 0; i < checks->size(); ++i) {
      const ShapeCheck& c = (*checks)[i];
      os << (i > 0 ? ", " : "") << "{\"name\": \"" << c.name
         << "\", \"values\": {";
      for (size_t v = 0; v < c.values.size(); ++v) {
        os << (v > 0 ? ", " : "") << "\"" << c.values[v].first
           << "\": " << Num(c.values[v].second);
      }
      os << "}, \"pass\": " << (c.pass ? "true" : "false")
         << ", \"deviation\": " << (c.deviation ? "true" : "false") << "}";
    }
    os << "]";
  }
  if (int8 != nullptr) {
    os << ", \"int8_argmax_agreement\": " << Num(int8->argmax_agreement);
  }
  os << "}\n";
  if (os) {
    std::cout << "[bench history appended to " << path << "]\n";
    return true;
  }
  return false;
}

}  // namespace lncl::bench
