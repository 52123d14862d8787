#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "common/fault.h"

namespace pdw {

namespace {
/// ParallelFor nesting depth of the current thread. Pool workers start at
/// 0 and adopt a batch's depth while draining it, so nesting is tracked
/// across the enqueue boundary, not just down the caller's stack.
thread_local int tls_nesting_depth = 0;
}  // namespace

int ThreadPool::nesting_depth() { return tls_nesting_depth; }

/// Shared state of one ParallelFor call. Indices are claimed from `next`;
/// `done` counts finished calls so the owner can wait for claimed-but-
/// unfinished work even after the index space is exhausted.
struct ThreadPool::Batch {
  int n = 0;
  int depth = 0;  ///< Nesting depth the batch's fn runs at.
  uint64_t fault_scope = 0;  ///< The starting thread's fault scope.
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  const std::function<void(int)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable cv;

  /// Claims and runs indices until none remain; returns how many it ran.
  int Drain() {
    int saved_depth = tls_nesting_depth;
    tls_nesting_depth = depth;
    int ran = 0;
    for (;;) {
      int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*fn)(i);
      ++ran;
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
    tls_nesting_depth = saved_depth;
    return ran;
  }
};

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    int n = 0;
    if (const char* env = std::getenv("PDW_POOL_THREADS")) {
      n = std::atoi(env);
    }
    if (n <= 0) {
      n = std::max(16, static_cast<int>(std::thread::hardware_concurrency()));
    }
    return new ThreadPool(n);
  }();
  return *pool;
}

void ThreadPool::SetMetricsHook(std::function<void(int, int)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  metrics_hook_ = std::move(hook);
}

void ThreadPool::RunOne(const std::function<void()>& task) {
  int active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    if (metrics_hook_) metrics_hook_(queue_depth(), active);
  }
  task();
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  active = active_.fetch_sub(1, std::memory_order_relaxed) - 1;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    if (metrics_hook_) metrics_hook_(queue_depth(), active);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.store(static_cast<int>(queue_.size()),
                         std::memory_order_relaxed);
    }
    RunOne(task);
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn,
                             int max_parallelism) {
  if (n <= 0) return;
  const int depth = tls_nesting_depth + 1;
  int prev_max = max_nesting_depth_.load(std::memory_order_relaxed);
  while (prev_max < depth &&
         !max_nesting_depth_.compare_exchange_weak(prev_max, depth,
                                                   std::memory_order_relaxed)) {
  }
  int cap = max_parallelism > 0 ? max_parallelism : size() + 1;
  if (depth > kMaxNestingDepth) {
    nested_serial_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    cap = 1;
  }
  if (n == 1 || cap <= 1) {
    int saved_depth = tls_nesting_depth;
    tls_nesting_depth = depth;
    for (int i = 0; i < n; ++i) fn(i);
    tls_nesting_depth = saved_depth;
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->depth = depth;
  batch->fault_scope = fault::CurrentScope();
  batch->fn = &fn;

  // One helper per index beyond the caller, bounded by the cap and the
  // pool size. Helpers that wake up after the batch is drained exit
  // immediately.
  int helpers = std::min({n, cap, size() + 1}) - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < helpers; ++i) {
      queue_.emplace_back([batch] {
        // Helpers work for the query that started the batch. A helper has
        // no error frame to surface an injected status into: delay faults
        // stall it before it starts (modeling a slow worker), error kinds
        // are counted by the registry but otherwise dropped here.
        fault::ScopeGuard scope(batch->fault_scope);
        (void)fault::Check("pool.task_start");
        batch->Drain();
      });
    }
    queue_depth_.store(static_cast<int>(queue_.size()),
                       std::memory_order_relaxed);
  }
  cv_.notify_all();

  // The caller participates, which is what makes nesting deadlock-free:
  // every claimed index is being run by a live thread that never waits on
  // unclaimed pool capacity.
  batch->Drain();
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->cv.wait(lock, [&] {
    return batch->done.load(std::memory_order_acquire) == batch->n;
  });
}

}  // namespace pdw
