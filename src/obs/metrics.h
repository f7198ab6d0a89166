#pragma once

// Process-wide metrics registry: named counters, high-water gauges, and
// fixed-bucket histograms for the training/prediction hot paths (GEMM call
// and FLOP counts, PredictBatch bucket occupancy, workspace arena high-water
// marks, E-step instance throughput).
//
// Design constraints, in order:
//
//  * Off-by-default-cheap. Recording is gated on one relaxed atomic flag
//    (Metrics::enabled()); with the flag down every Add/Update/Observe is a
//    load + predictable branch — the null sink. Instrumenting a hot kernel
//    therefore costs nothing measurable until a bench or tool opts in.
//  * No perturbation. Metrics only count; they never touch the numbers a
//    fit computes, so a telemetry-enabled run is bit-identical to a plain
//    one (tests/obs_test.cc compares the two fits bit for bit).
//  * Deterministic merge. Each metric stripes its state over kMaxShards
//    per-thread slots (a thread keeps one shard index for life, handed out
//    in first-use order) and snapshots merge the shards in fixed slot-index
//    order — the same discipline as util::Parallelizer. Counter, gauge, and
//    histogram bucket values are integers, so totals are exact and
//    independent of which thread incremented which shard; only a
//    histogram's double `sum` can depend on the work partition when
//    observations are non-integral (ours are integral).
//
// The obs/ layer is freestanding: it depends only on the standard library,
// so even util/ (matrix.cc, workspace.cc) can instrument through it without
// a dependency cycle.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lncl::obs {

// Per-metric shard count. Threads beyond this many share slots (totals stay
// exact — integer adds commute); raising it only costs idle memory.
inline constexpr int kMaxShards = 64;

// Monotonic event count (calls, instances, FLOPs). Add() is wait-free: one
// relaxed fetch_add on the calling thread's shard.
class Counter {
 public:
  void Add(uint64_t n);
  void Increment() { Add(1); }

  // Sum over shards in slot order.
  uint64_t Total() const;

  const std::string& name() const { return name_; }

 private:
  friend class Metrics;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<uint64_t> shards_[kMaxShards] = {};
};

// High-water gauge: Update(v) raises the calling thread's shard to at least
// v; Value() is the max over shards. The natural fit for per-thread arena
// peaks, where the interesting global figure is the worst thread.
class Gauge {
 public:
  void Update(int64_t v);

  int64_t Value() const;

  const std::string& name() const { return name_; }

 private:
  friend class Metrics;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<int64_t> shards_[kMaxShards] = {};
};

// Fixed-bucket histogram. Bucket i counts observations v <= edges[i] (first
// matching edge); one overflow bucket counts v > edges.back(). Edges are
// fixed at registration — re-registering a name with different edges keeps
// the first registration's edges.
class Histogram {
 public:
  void Observe(double v);

  uint64_t TotalCount() const;
  double TotalSum() const;
  // Merged per-bucket counts, edges.size() + 1 entries (last = overflow).
  std::vector<uint64_t> BucketCounts() const;

  const std::string& name() const { return name_; }
  const std::vector<double>& edges() const { return edges_; }

 private:
  friend class Metrics;
  Histogram(std::string name, std::vector<double> edges);

  struct Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::vector<std::atomic<uint64_t>> buckets;
  };

  std::string name_;
  std::vector<double> edges_;
  std::vector<Shard> shards_;  // kMaxShards entries, fixed at construction
};

// The registry. Get* registers on first use and returns a stable pointer
// (call sites cache it in a function-local static); Snapshot* merge every
// shard in fixed order and emit metrics sorted by name, so two runs that
// did the same work produce identical snapshots regardless of scheduling.
class Metrics {
 public:
  // Runtime switch for every Add/Update/Observe. Off (default) is the null
  // sink: instrumentation sites cost one relaxed load + branch.
  static void Enable(bool on);
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  static Counter* GetCounter(const std::string& name);
  static Gauge* GetGauge(const std::string& name);
  static Histogram* GetHistogram(const std::string& name,
                                 std::vector<double> edges);

  // All counter totals, sorted by name. The run logger diffs consecutive
  // snapshots to attach per-epoch metric deltas to each epoch record.
  static std::vector<std::pair<std::string, uint64_t>> CounterTotals();

  // Full registry snapshot as a JSON object:
  //   {"counters": {...}, "gauges": {...},
  //    "histograms": {name: {"edges": [...], "counts": [...],
  //                          "count": N, "sum": S}}}
  static std::string SnapshotJson();

  // SnapshotJson() to a file; false on I/O failure.
  static bool WriteSnapshotJson(const std::string& path);

  // Zeroes every shard of every registered metric (registrations persist).
  // For tests and for benches that want per-section figures.
  static void Reset();

  // The calling thread's shard slot in [0, kMaxShards).
  static int ThreadShard();

 private:
  static std::atomic<bool> enabled_;
};

}  // namespace lncl::obs
