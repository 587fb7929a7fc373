// Asynchronous clustering jobs: a bounded FIFO queue feeding executor
// lanes that run on the engine's existing ThreadPool, with admission
// control that carves every running job's memory budget out of one global
// `memory_budget_bytes` pool.
//
// Lifecycle: queued -> running -> done | failed, or queued -> cancelled.
// A running job is never cancelled mid-compute (the kernels have no
// preemption points); Cancel() on a running job is a 409-style error.
// Finished jobs are kept for the process lifetime; a done job keeps one
// clustering::PackedResult, packed on its executor lane.
//
// Admission control semantics (the service's budget contract):
//   * Let B = JobManagerConfig::global_budget_bytes (0 = unlimited).
//   * A job's effective budget b is its spec's engine.memory_budget_bytes,
//     or B itself when the spec leaves it 0 (an unbudgeted job claims the
//     whole pool and therefore runs alone).
//   * b > B is rejected at submit (the job could never be admitted).
//   * Executors admit strictly in FIFO order: the queue head waits until
//     budget_in_use + b <= B, and nothing behind it may overtake. Two
//     concurrent jobs that each need more than B/2 therefore serialize —
//     observable via the max_running_concurrent metric.
//   * The admitted b is written into the job's EngineConfig before the run,
//     so the engine-level budget machinery (tiled pairwise stores, mapped
//     moment and sample stores) enforces per-job what admission granted
//     globally.
//   * With B > 0 the registry's decoded-moment cache is not used: its bytes
//     would sit outside every admitted b. With B = 0, UCPC, MMVar and
//     UK-means / CK-means jobs whose (3m + 1) * n moment doubles fit their
//     own budget (io::ResidentMomentsFit) share DatasetRegistry's cached
//     store.
#ifndef UCLUST_SERVICE_JOB_MANAGER_H_
#define UCLUST_SERVICE_JOB_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clustering/clusterer.h"
#include "clustering/result_json.h"
#include "common/status.h"
#include "engine/thread_pool.h"
#include "service/dataset_registry.h"
#include "service/job_spec.h"

namespace uclust::service {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

/// Stable lowercase name ("queued", "running", "done", "failed",
/// "cancelled") — the state strings of the REST API.
const char* JobStateName(JobState state);

struct JobManagerConfig {
  /// Concurrent executor lanes (jobs running at once, budget permitting).
  int executors = 2;
  /// Max queued-but-not-running jobs; submits beyond it are rejected
  /// (429-style), not blocked.
  std::size_t queue_capacity = 32;
  /// The global memory pool admission carves from. 0 = unlimited (no
  /// admission constraint; jobs run whenever a lane is free).
  std::size_t global_budget_bytes = 0;

  /// Runs one job: (spec, dataset, engine config with the admitted budget
  /// applied) -> result. Tests override it to control job duration
  /// deterministically (e.g. latch-blocked runners for admission tests);
  /// empty = the real clustering runner.
  using Runner = std::function<common::Result<clustering::ClusteringResult>(
      const JobSpec&, const DatasetInfo&, const engine::EngineConfig&)>;
  Runner runner_override;
};

/// Point-in-time copy of one job's externally visible state.
struct JobSnapshot {
  std::string id;  // "j-1"
  JobState state = JobState::kQueued;
  JobSpec spec;
  DatasetInfo dataset;
  /// The budget admission reserves while the job runs (0 iff the global
  /// pool is unlimited and the spec set none).
  std::size_t effective_budget_bytes = 0;
  std::string error;      // non-empty iff kFailed
  /// The job's retained result record, shared rather than copied; non-null
  /// iff kDone.
  std::shared_ptr<const clustering::PackedResult> result;
  std::string request_id;  // correlation id of the submit
  double queued_ms = 0;    // process-uptime stamps; 0 = not reached
  double started_ms = 0;
  double finished_ms = 0;
};

/// Counters + gauges for GET /v1/metrics. Monotonic unless noted.
struct JobMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  // queue-full + over-global-budget submits
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t admission_waits = 0;  // jobs that stalled at the queue head
  std::size_t queued = 0;             // gauge
  std::size_t running = 0;            // gauge
  /// High-water mark of simultaneously running jobs — the admission-
  /// serialization tests' observable.
  std::size_t max_running_concurrent = 0;
  std::size_t global_budget_bytes = 0;
  std::size_t budget_in_use_bytes = 0;  // gauge
  /// Finished jobs whose result record the manager keeps (gauge; every
  /// done job is kept for the process lifetime).
  std::size_t results_retained = 0;
  /// Sum of PackedResult::RetainedBytes over those records (gauge).
  std::size_t result_bytes_retained = 0;
};

class JobManager {
 public:
  /// `registry` must outlive the manager; Submit resolves dataset ids
  /// against it.
  JobManager(const DatasetRegistry* registry, JobManagerConfig cfg);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Spins up the executor lanes (idempotent).
  void Start();
  /// Stops accepting work, drains running jobs, joins the lanes. Queued
  /// jobs are marked cancelled.
  void Stop();

  /// Validates against the registry + admission rules and enqueues.
  /// Returns the job id, or: NotFound (unknown dataset), InvalidArgument
  /// (k outside [1, n] for the dataset's n), OutOfRange (effective budget exceeds the
  /// global pool, or queue full — the message distinguishes them).
  common::Result<std::string> Submit(JobSpec spec,
                                     const std::string& request_id);

  /// Snapshot of one job; NotFound for unknown ids. A done job's result
  /// record is shared with the snapshot, not copied.
  common::Result<JobSnapshot> Get(const std::string& id) const;

  /// Cancels a queued job. Running jobs return InvalidArgument (the API
  /// maps it to 409); terminal jobs are a no-op success.
  common::Status Cancel(const std::string& id);

  /// Blocks until the job reaches a terminal state or `timeout_ms` passes.
  /// True iff terminal. timeout_ms < 0 waits forever.
  bool Wait(const std::string& id, int timeout_ms) const;

  JobMetrics Metrics() const;

 private:
  struct Job {
    std::string id;
    JobState state = JobState::kQueued;
    JobSpec spec;
    DatasetInfo dataset;
    std::size_t budget = 0;
    bool counted_admission_wait = false;
    std::string error;
    std::shared_ptr<const clustering::PackedResult> result;
    std::string request_id;
    double queued_ms = 0, started_ms = 0, finished_ms = 0;
  };

  void ExecutorLoop();
  // The job an id names, or null; caller holds mu_.
  Job* FindLocked(const std::string& id) const;
  // Budget check for the queue head; caller holds mu_.
  bool Admissible(const Job& job) const;
  JobSnapshot SnapshotLocked(const Job& job) const;

  const DatasetRegistry* registry_;
  JobManagerConfig cfg_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<std::unique_ptr<Job>> jobs_;  // index i holds "j-(i+1)"
  std::deque<Job*> queue_;
  std::size_t budget_in_use_ = 0;
  JobMetrics metrics_;
  bool stop_ = false;
  bool started_ = false;

  /// The executor lanes run as one long-lived batch on the engine's
  /// ThreadPool primitive (dispatched from a single holder thread, since
  /// RunTasks blocks until the batch — i.e. service shutdown — completes).
  std::unique_ptr<engine::ThreadPool> pool_;
  std::thread pool_holder_;
};

}  // namespace uclust::service

#endif  // UCLUST_SERVICE_JOB_MANAGER_H_
