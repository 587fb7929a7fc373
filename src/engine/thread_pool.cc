#include "engine/thread_pool.h"

#include <algorithm>
#include <cassert>

#include "engine/cpu_spread.h"

namespace uclust::engine {

namespace {
// 0 on every thread that is not a pool worker; workers overwrite it once.
thread_local int tl_worker_id = 0;
}  // namespace

int ThreadPool::CurrentWorkerId() { return tl_worker_id; }

ThreadPool::ThreadPool(int workers) {
  const int count = std::max(workers, 1);
  threads_.reserve(count);
  for (int w = 0; w < count; ++w) {
    const int cpu = CpuForNewThread();
    threads_.emplace_back([this, w, cpu] {
      StartOnCpu(cpu);
      WorkerLoop(w + 1);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  batch_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Process(Batch* batch) {
  for (;;) {
    const std::size_t t = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (t >= batch->count) return;
    try {
      (*batch->task)(t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch->error_mu);
      if (!batch->error) batch->error = std::current_exception();
    }
    if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task of the batch: wake the caller blocked in RunTasks. The
      // lock pairs with the caller's wait to avoid a lost notification.
      std::lock_guard<std::mutex> lock(mu_);
      batch_done_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop(int worker_id) {
  tl_worker_id = worker_id;
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    batch_ready_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    std::shared_ptr<Batch> batch = batch_;
    lock.unlock();
    if (batch) Process(batch.get());
    lock.lock();
  }
}

void ThreadPool::RunTasks(std::size_t count,
                          const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (tl_worker_id != 0) {
    // Nested call from inside a task: run inline to avoid deadlocking on the
    // pool that is executing us.
    for (std::size_t t = 0; t < count; ++t) task(t);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->task = &task;
  batch->count = count;
  batch->remaining.store(count, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = batch;
    ++generation_;
  }
  batch_ready_.notify_all();
  Process(batch.get());
  {
    std::unique_lock<std::mutex> lock(mu_);
    batch_done_.wait(lock, [&] {
      return batch->remaining.load(std::memory_order_acquire) == 0;
    });
    if (batch_ == batch) batch_.reset();
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace uclust::engine
