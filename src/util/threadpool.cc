#include "util/threadpool.h"

#include <algorithm>
#include <atomic>

namespace lncl::util {

int HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = HardwareThreads();
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> job) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    jobs_.push(std::move(job));
    ++in_flight_;
  }
  cv_job_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_job_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (stop_) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

namespace {

// Shared state for one ParallelRun call. Helper jobs may outlive the call
// (a queued helper can start after the range is drained and exit
// immediately), so the state — including a copy of fn — is shared_ptr-owned.
struct RunState {
  explicit RunState(int n_in, std::function<void(int)> fn_in)
      : n(n_in), fn(std::move(fn_in)) {}
  const int n;
  const std::function<void(int)> fn;
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
};

void DrainRange(const std::shared_ptr<RunState>& st) {
  int i;
  while ((i = st->next.fetch_add(1, std::memory_order_relaxed)) < st->n) {
    st->fn(i);
    if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->n) {
      std::lock_guard<std::mutex> lock(st->mu);
      st->cv.notify_all();
    }
  }
}

}  // namespace

void ThreadPool::ParallelRun(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  auto st = std::make_shared<RunState>(n, fn);
  const int helpers = std::min(num_threads(), n - 1);
  for (int h = 0; h < helpers; ++h) {
    Submit([st] { DrainRange(st); });
  }
  DrainRange(st);  // the caller participates, so progress never stalls
  std::unique_lock<std::mutex> lock(st->mu);
  st->cv.wait(lock,
              [&] { return st->done.load(std::memory_order_acquire) == n; });
}

Parallelizer::Parallelizer(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  if (num_threads_ > 1) {
    // The calling thread participates in RunSlots, so spawn one fewer
    // worker than the requested parallelism.
    pool_ = std::make_unique<ThreadPool>(num_threads_ - 1);
  }
}

void Parallelizer::RunSlots(int slots, const std::function<void(int)>& fn) {
  if (slots <= 0) return;
  if (pool_ == nullptr || slots == 1) {
    for (int s = 0; s < slots; ++s) fn(s);
    return;
  }
  pool_->ParallelRun(slots, fn);
}

std::pair<int, int> Parallelizer::SlotRange(int n, int slot, int slots) {
  const int base = n / slots;
  const int rem = n % slots;
  const int begin = slot * base + std::min(slot, rem);
  const int end = begin + base + (slot < rem ? 1 : 0);
  return {begin, end};
}

}  // namespace lncl::util
