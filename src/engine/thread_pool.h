// Fixed-size worker pool underlying every parallel loop in the library.
//
// The pool is deliberately minimal: one blocking RunTasks() primitive that
// executes `count` independent tasks across the workers plus the calling
// thread. Determinism of the clustering results is NOT the pool's job — the
// blocked-range helpers in parallel_for.h achieve it by making every
// reduction combine per-block partials in block order, so the pool is free
// to schedule tasks in any order.
#ifndef UCLUST_ENGINE_THREAD_POOL_H_
#define UCLUST_ENGINE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace uclust::engine {

/// A fixed set of worker threads executing batches of independent tasks.
///
/// RunTasks() blocks until the whole batch finished; the calling thread
/// participates, so a pool with W workers gives W + 1 concurrent lanes.
/// The first exception thrown by any task is captured and rethrown to the
/// caller once the batch has drained (remaining tasks still run). Calling
/// RunTasks() from inside a task runs the nested batch inline on the calling
/// worker — nesting never deadlocks, it just does not parallelize further.
class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1), each started on one of the
  /// caller's other allowed CPUs (engine/cpu_spread.h).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding callers of RunTasks).
  int workers() const { return static_cast<int>(threads_.size()); }

  /// Maximum number of threads that may execute tasks of one batch
  /// simultaneously (workers + the calling thread).
  int max_concurrency() const { return workers() + 1; }

  /// Runs task(t) for every t in [0, count) and blocks until all completed.
  /// Safe to call repeatedly; the pool is reusable across batches.
  void RunTasks(std::size_t count, const std::function<void(std::size_t)>& task);

  /// Stable id of the current thread within RunTasks execution:
  /// 0 for the calling (non-pool) thread, 1..workers for pool workers.
  /// Valid as a scratch-slot index in [0, max_concurrency()).
  static int CurrentWorkerId();

 private:
  // One batch of tasks; heap-shared so a lagging worker that wakes up after
  // the batch drained only ever sees exhausted counters, never a stale
  // function pointer of the next batch.
  struct Batch {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
    std::mutex error_mu;
    std::exception_ptr error;
  };

  void WorkerLoop(int worker_id);
  void Process(Batch* batch);

  std::mutex mu_;
  std::condition_variable batch_ready_;
  std::condition_variable batch_done_;
  std::shared_ptr<Batch> batch_;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace uclust::engine

#endif  // UCLUST_ENGINE_THREAD_POOL_H_
