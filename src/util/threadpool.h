#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace lncl::util {

// std::thread::hardware_concurrency(), or 1 where it is unknown: the worker
// count of a ThreadPool built with num_threads <= 0, and of the EM
// aggregators' Infer (inference/truth_inference.h).
int HardwareThreads();

// Fixed-size worker pool. Used in two ways:
//  * by the benchmark harness to run independent (method, seed) experiments
//    concurrently — each submitted job owns all of its state;
//  * through ParallelRun / Parallelizer below for deterministic
//    intra-model parallelism (parallel E-step sweeps, sharded minibatch
//    gradient accumulation).
class ThreadPool {
 public:
  // Spawns `num_threads` workers (>=1; defaults to hardware concurrency).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a job. Safe to call from any thread until Wait()/destruction.
  void Submit(std::function<void()> job);

  // Blocks until every submitted job has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Runs fn(i) for i in [0, n) across the pool workers AND the calling
  // thread, returning when exactly these n calls have completed (other
  // concurrently submitted work is unaffected). Indices are handed out
  // dynamically, so this is safe to call even when every worker is busy:
  // the caller participates and can drain the whole range alone.
  void ParallelRun(int n, const std::function<void(int)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  int in_flight_ = 0;
  bool stop_ = false;
};

// Deterministic intra-model parallelism.
//
// Work is split into a FIXED number of contiguous slots (kSlots, independent
// of the worker count). Each slot owns its accumulator state, computed
// serially within the slot in index order; the caller then merges the slot
// states in slot-index order. Because neither the slot structure nor the
// merge order depends on how many threads execute the slots, the result is
// bit-identical for ANY thread count — including 1, where the slots simply
// run back to back on the calling thread. This is what lets training use
// all cores without giving up reproducibility (see DESIGN.md §5).
class Parallelizer {
 public:
  // Fixed slot count for sharded reductions. Changing it changes the
  // floating-point merge order (and therefore results); it is a build-time
  // constant, not a tuning knob.
  static constexpr int kSlots = 8;

  // num_threads <= 1 means serial execution (no pool is created).
  explicit Parallelizer(int num_threads = 1);

  // Runs fn(slot) for slot in [0, slots). Slots may execute on any thread
  // and in any order; they must only touch per-slot state.
  void RunSlots(int slots, const std::function<void(int)>& fn);

  // Contiguous range [begin, end) of items owned by `slot` when n items are
  // statically split across `slots` slots (remainder spread over the first
  // slots). Pure function of (n, slot, slots) — never of the thread count.
  static std::pair<int, int> SlotRange(int n, int slot, int slots);

  int num_threads() const { return num_threads_; }

 private:
  int num_threads_;
  std::unique_ptr<ThreadPool> pool_;  // only when num_threads > 1
};

}  // namespace lncl::util

