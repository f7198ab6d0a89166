// lncl_benchmark: the repository benchmark. One workload per process.
//
//   lncl_benchmark --workload=<name> --seed=<n> --seconds=<s>
//   lncl_benchmark --workload=<name> --seed=<n> --trace=<dir>
//   lncl_benchmark --list
//
// Untraced, it builds the workload's inputs at least five times (setup_s is
// the median), runs one untimed warm-up unit, then runs units until --seconds
// have passed, and prints every end-to-end metric. With --trace it runs a
// warm-up, three untraced units, one unit with obs::Trace and obs::Metrics
// on (the trace file goes to <dir>), and a layer pass, and prints every
// per-layer metric. Either way the last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit code 2 is a usage or
// environment error, 1 a failed output check.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/mem_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/gemm_kernel.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workloads.h"

namespace lncl::benchmark {
namespace {

// Set-up is repeated until both bounds are met and setup_s is the median:
// the fit workloads build their inputs in milliseconds, so one sample would
// be mostly timer and cache noise.
constexpr int kMinSetups = 5;
constexpr double kMinSetupSeconds = 1.0;
constexpr int kUntracedUnits = 3;

void Usage(const std::string& error) {
  std::cerr << "lncl_benchmark: " << error << "\n"
            << "usage: lncl_benchmark --workload=<name> --seed=<n> "
               "--seconds=<s>\n"
            << "       lncl_benchmark --workload=<name> --seed=<n> "
               "--trace=<dir>\n"
            << "       lncl_benchmark --list\n";
}

void PrintHeader(const Flags& flags) {
  std::cout << "# lncl_benchmark workload=" << flags.workload
            << " seed=" << flags.seed << " seconds=" << flags.seconds
            << " trace=" << (flags.trace_dir.empty() ? "off" : flags.trace_dir)
            << "\n# git_rev=" << GitRevision(".")
            << " host=" << obs::HostFingerprint()
            << " nproc=" << std::thread::hardware_concurrency()
            << " gemm_kernel="
            << util::gemm::KindName(util::gemm::ActiveKind())
            << " isa=" << util::gemm::SimdIsa()
            << " audit=" << (LNCL_AUDIT_ENABLED ? "on" : "off") << "\n";
}

// "metric <name> = <value> <unit> (<note>)" — the human-readable report.
void PrintMetric(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  std::cout << "metric " << name << " = " << JsonNumber(value) << " " << unit;
  if (!note.empty()) std::cout << "  (" << note << ")";
  std::cout << "\n";
}

std::string Count(size_t n, const std::string& what) {
  return "n=" + std::to_string(n) + " " + what + (n == 1 ? "" : "s");
}

double PeakRssMb() {
  const obs::MemSample mem = obs::ReadSelfStatus();
  return mem.ok ? static_cast<double>(mem.vm_hwm_kb) / 1024.0 : 0.0;
}

int Finish(const Result& result) {
  std::cout << "correct=" << (result.correct ? "true" : "false")
            << " attempted=" << result.attempted
            << " failed=" << result.failed << " error_rate="
            << JsonNumber(result.attempted > 0
                              ? static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted)
                              : 0.0)
            << "\n"
            << ResultJson(result) << std::endl;
  return result.correct ? 0 : 1;
}

int RunEndToEnd(const Flags& flags) {
  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> workload;
  util::Stopwatch setup_clock;
  while (setup_seconds.size() < kMinSetups ||
         setup_clock.Seconds() < kMinSetupSeconds) {
    workload.reset();  // at most one copy of the inputs alive
    util::Stopwatch watch;
    workload = MakeWorkload(flags.workload, flags.seed);
    setup_seconds.push_back(watch.Seconds());
  }
  const UnitReport warm_up = workload->RunUnit();
  if (!warm_up.fit_digest.empty()) {
    std::cout << "fit_digest=" << warm_up.fit_digest << "\n";
  }

  std::vector<UnitReport> units;
  util::Stopwatch clock;
  do {
    units.push_back(workload->RunUnit());
  } while (clock.Seconds() < flags.seconds);

  Result result;
  std::vector<double> op_ms;
  std::vector<double> rates;  // items per second of each op
  for (const UnitReport& u : units) {
    for (size_t i = 0; i < u.op_seconds.size(); ++i) {
      op_ms.push_back(u.op_seconds[i] * 1e3);
      rates.push_back(u.op_items[i] / u.op_seconds[i]);
    }
    result.attempted += static_cast<int64_t>(u.op_seconds.size());
    result.failed += u.failed_ops;
  }
  result.correct = warm_up.failed_ops == 0 && result.failed == 0;

  // Times are gated at the fast end of the run (p10 latency, p90 rate): on a
  // shared host, slow phases of seconds to minutes move a run's median but
  // not its fastest tenth (README, "Why the fast end of the run").
  const std::string ops = Count(op_ms.size(), workload->op_name());
  const std::map<std::string, std::pair<double, std::string>> measured = {
      {"setup_s",
       {Median(setup_seconds), Count(setup_seconds.size(), "setup")}},
      {"op_p10_ms", {Quantile(op_ms, 0.10), ops}},
      {"items_per_s_p90", {Quantile(rates, 0.90), ops}},
      {"peak_rss_mb", {PeakRssMb(), "VmHWM"}},
  };
  for (const MetricSpec& spec : kEndToEnd) {
    const auto& [value, note] = measured.at(spec.name);
    result.metrics.push_back({spec.name, value, spec.unit});
    PrintMetric(spec.name, value, spec.unit, note);
  }
  PrintMetric("op_p50_ms", Median(op_ms), "ms", ops);
  const double tail = TailPercentile(op_ms.size());
  if (tail > 50.0) {
    char name[32];
    std::snprintf(name, sizeof(name), "op_p%g_ms", tail);
    PrintMetric(name, Quantile(op_ms, tail / 100.0), "ms",
                ops + ", highest percentile with >= 10 samples beyond it");
  }
  PrintMetric("items_per_s_p50", Median(rates), "items/s", ops);
  for (const auto& [name, value] : units.back().details) {
    PrintMetric(name, value, "fraction", "");
  }
  return Finish(result);
}

double BusySeconds(const UnitReport& u) {
  double sum = 0.0;
  for (const double s : u.op_seconds) sum += s;
  return sum;
}

int RunTraced(const Flags& flags) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(flags.workload, flags.seed);
  Result result;
  const UnitReport warm_up = workload->RunUnit();
  std::vector<double> untraced;
  for (int i = 0; i < kUntracedUnits; ++i) {
    const UnitReport u = workload->RunUnit();
    untraced.push_back(BusySeconds(u));
    result.attempted += static_cast<int64_t>(u.op_seconds.size());
    result.failed += u.failed_ops;
  }

  std::error_code ec;
  std::filesystem::create_directories(flags.trace_dir, ec);
  const std::string trace_path =
      (std::filesystem::path(flags.trace_dir) / (flags.workload + ".json"))
          .string();
  obs::Metrics::Enable(true);
  const bool tracing = obs::Trace::Start(trace_path);
  const UnitReport traced = workload->RunUnit();
  if (tracing) obs::Trace::Stop();
  obs::Metrics::Enable(false);
  result.attempted += static_cast<int64_t>(traced.op_seconds.size());
  result.failed += traced.failed_ops;
  result.correct = warm_up.failed_ops == 0 && result.failed == 0;
  std::cout << "trace=" << (tracing ? trace_path : "unavailable") << "\n";
  if (!warm_up.fit_digest.empty()) {
    std::cout << "fit_digest warm_up=" << warm_up.fit_digest
              << " traced=" << traced.fit_digest << "\n";
  }

  LayerValues values;
  for (const MetricSpec& spec : kPerLayer) values[spec.name] = 0.0;
  values["core.m_step_s"] = traced.phases.m_step;
  values["core.e_step_s"] = traced.phases.e_step;
  values["core.confusion_s"] = traced.phases.confusion;
  values["core.dev_eval_s"] = traced.phases.dev_eval;
  values["core.epochs_run"] = traced.epochs_run;
  const auto counter = [&traced](const std::string& name) {
    const auto it = traced.counters.find(name);
    return it == traced.counters.end() ? 0.0 : it->second;
  };
  values["core.e_step.instances"] = counter("e_step.instances");
  values["nn.optimizer.steps"] = counter("optimizer.steps");
  values["models.predict_batch.instances"] =
      counter("predict_batch.instances");
  values["util.gemm.calls"] = counter("gemm.calls");
  values["util.gemm.flops"] = counter("gemm.flops");
  const double hits = counter("gemm.pack.hit");
  const double misses = counter("gemm.pack.miss");
  values["util.gemm.pack_hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  values["trace.overhead_ratio"] = BusySeconds(traced) / Median(untraced);
  workload->LayerPass(&values);
  LNCL_CHECK(values.size() == kPerLayer.size());  // no name outside kPerLayer

  for (const MetricSpec& spec : kPerLayer) {
    result.metrics.push_back({spec.name, values[spec.name], spec.unit});
    PrintMetric(spec.name, values[spec.name], spec.unit, "");
  }
  return Finish(result);
}

int Main(int argc, char** argv) {
  util::SetLogLevel(util::LogLevel::kWarning);
  Flags flags;
  std::string error;
  if (!ParseFlags(std::vector<std::string>(argv + 1, argv + argc), &flags,
                  &error)) {
    Usage(error);
    return 2;
  }
  if (flags.list) {
    for (const std::string& w : kWorkloads) std::cout << "workload " << w << "\n";
    for (const MetricSpec& m : kEndToEnd) {
      std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
    }
    for (const MetricSpec& m : kPerLayer) {
      std::cout << "per_layer " << m.name << " " << m.unit << "\n";
    }
    return 0;
  }
  const std::vector<std::string> env = LnclEnvironment(environ);
  if (!env.empty()) {
    std::string names;
    for (const std::string& n : env) names += " " + n;
    Usage("refusing to run with LNCL_* variables set:" + names);
    return 2;
  }
  PrintHeader(flags);
  return flags.trace_dir.empty() ? RunEndToEnd(flags) : RunTraced(flags);
}

}  // namespace
}  // namespace lncl::benchmark

int main(int argc, char** argv) { return lncl::benchmark::Main(argc, argv); }
