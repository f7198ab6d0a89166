#include "harness.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

namespace lncl::benchmark {

const std::vector<std::string> kWorkloads = {"sentiment_fit", "ner_fit",
                                             "ner_serve", "ner_aggregate"};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"op_p10_ms", "ms"},
    {"items_per_s_p90", "items/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"core.m_step_s", "s"},
    {"core.e_step_s", "s"},
    {"core.confusion_s", "s"},
    {"core.dev_eval_s", "s"},
    {"core.epochs_run", "count"},
    {"core.compute_qa_s", "s"},
    {"core.update_confusions_s", "s"},
    {"core.e_step.instances", "count"},
    {"models.train_step_s", "s"},
    {"nn.optimizer_step_s", "s"},
    {"nn.optimizer.steps", "count"},
    {"models.predict_batch_s", "s"},
    {"models.predict_batch.instances", "count"},
    {"models.predict_int8_s", "s"},
    {"logic.project_batch_s", "s"},
    {"logic.projected_items", "count"},
    {"util.gemm.calls", "count"},
    {"util.gemm.flops", "count"},
    {"util.gemm.pack_hit_ratio", "ratio"},
    {"inference.mv_s", "s"},
    {"inference.ds_s", "s"},
    {"inference.ibcc_s", "s"},
    {"inference.bsc_seq_s", "s"},
    {"inference.hmm_crowd_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

namespace {

bool ParseUint64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParsePositiveDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v) ||
      v <= 0.0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

bool ParseFlags(const std::vector<std::string>& args, Flags* flags,
                std::string* error) {
  std::set<std::string> seen;
  for (const std::string& arg : args) {
    if (arg == "--list") {
      flags->list = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      *error = "expected --key=value, got '" + arg + "'";
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (!seen.insert(key).second) {
      *error = "--" + key + " given twice";
      return false;
    }
    if (key == "workload") {
      flags->workload = value;
    } else if (key == "seed") {
      if (!ParseUint64(value, &flags->seed)) {
        *error = "--seed needs an unsigned integer, got '" + value + "'";
        return false;
      }
    } else if (key == "seconds") {
      if (!ParsePositiveDouble(value, &flags->seconds)) {
        *error = "--seconds needs a positive number, got '" + value + "'";
        return false;
      }
    } else if (key == "trace") {
      if (value.empty()) {
        *error = "--trace needs a directory";
        return false;
      }
      flags->trace_dir = value;
    } else {
      *error = "unknown flag --" + key;
      return false;
    }
  }
  if (flags->list) return true;
  if (flags->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), flags->workload) ==
      kWorkloads.end()) {
    *error = "unknown workload '" + flags->workload + "'";
    return false;
  }
  if (flags->trace_dir.empty() && flags->seconds == 0.0) {
    *error = "--seconds is required without --trace";
    return false;
  }
  return true;
}

std::vector<std::string> LnclEnvironment(char** envp) {
  std::vector<std::string> names;
  for (char** e = envp; e != nullptr && *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("LNCL_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  return names;
}

namespace {

namespace fs = std::filesystem;

std::string FirstLine(const fs::path& path) {
  std::ifstream is(path);
  std::string line;
  if (is) std::getline(is, line);
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
    line.pop_back();
  }
  return line;
}

bool IsCommitHash(const std::string& s) {
  if (s.size() < 12) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

// `ref` ("refs/heads/main") as a loose ref in either directory, then as a
// packed ref of the common directory.
std::string ResolveRef(const fs::path& git_dir, const fs::path& common_dir,
                       const std::string& ref) {
  for (const fs::path& dir : {git_dir, common_dir}) {
    const std::string loose = FirstLine(dir / ref);
    if (IsCommitHash(loose)) return loose.substr(0, 12);
  }
  std::ifstream packed(common_dir / "packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    const size_t space = line.find(' ');
    if (space == std::string::npos || line.substr(space + 1) != ref) continue;
    const std::string hash = line.substr(0, space);
    if (IsCommitHash(hash)) return hash.substr(0, 12);
  }
  return "unknown";
}

std::string RevisionOf(const fs::path& git_dir) {
  std::error_code ec;
  if (!fs::is_directory(git_dir, ec)) return "unknown";
  fs::path common_dir = git_dir;
  const std::string common = FirstLine(git_dir / "commondir");
  if (!common.empty()) {
    common_dir = fs::path(common).is_absolute() ? fs::path(common)
                                                : git_dir / common;
  }
  const std::string head = FirstLine(git_dir / "HEAD");
  if (head.rfind("ref: ", 0) == 0) {
    return ResolveRef(git_dir, common_dir, head.substr(5));
  }
  return IsCommitHash(head) ? head.substr(0, 12) : "unknown";
}

}  // namespace

std::string GitRevision(const std::string& dir) {
  const fs::path dot_git = fs::path(dir) / ".git";
  std::error_code ec;
  if (fs::is_directory(dot_git, ec)) return RevisionOf(dot_git);
  const std::string line = FirstLine(dot_git);  // empty when absent
  if (line.rfind("gitdir: ", 0) != 0) return "unknown";
  const fs::path target(line.substr(8));
  return RevisionOf(target.is_absolute() ? target : fs::path(dir) / target);
}

double Quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double TailPercentile(size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) best = p;
  }
  return best;
}

bool RowStochastic(const util::Matrix& m) {
  for (int r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (int c = 0; c < m.cols(); ++c) {
      const float v = m(r, c);
      if (!std::isfinite(v) || v < 0.0f) return false;
      sum += v;
    }
    if (std::fabs(sum - 1.0) > 1e-3) return false;
  }
  return true;
}

bool AllRowStochastic(const std::vector<util::Matrix>& ms) {
  return std::all_of(ms.begin(), ms.end(),
                     [](const util::Matrix& m) { return RowStochastic(m); });
}

uint64_t HashBytes(const void* data, size_t n, uint64_t h) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashMatrices(const std::vector<util::Matrix>& ms, uint64_t h) {
  for (const util::Matrix& m : ms) {
    const int shape[2] = {m.rows(), m.cols()};
    h = HashBytes(shape, sizeof(shape), h);
    h = HashBytes(m.data(), m.size() * sizeof(float), h);
  }
  return h;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ResultJson(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Result::Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace lncl::benchmark
