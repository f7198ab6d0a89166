// Combined micro-benchmark driver: links micro_nn.cc and micro_logic.cc
// (their BENCHMARK_MAINs are compiled out via LNCL_MICRO_COMBINED) and
// defaults the reporter to machine-readable JSON at results/BENCH_micro.json,
// so perf regressions can be diffed per kernel (ns/op) across commits:
//
//   ./bench/micro_all                       # console + JSON side file
//   ./bench/micro_all --benchmark_out=...   # explicit output wins
//
// Any google-benchmark flag still applies (--benchmark_filter, etc.).
// Each run also appends a wall-time + peak-RSS record to
// results/BENCH_history.jsonl (schema lncl.bench.v1).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_history.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  lncl::util::Stopwatch bench_timer;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::vector<std::string> extra;
  if (!has_out) {
    std::filesystem::create_directories("results");
    extra.push_back("--benchmark_out=results/BENCH_micro.json");
    extra.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args(argv, argv + argc);
  for (std::string& s : extra) args.push_back(s.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lncl::bench::AppendBenchHistory("micro", bench_timer.Seconds());
  return 0;
}
