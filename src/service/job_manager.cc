#include "service/job_manager.h"

#include <algorithm>
#include <charconv>
#include <chrono>

#include "clustering/ckmeans.h"
#include "clustering/moment_clusterer.h"
#include "clustering/registry.h"
#include "common/stopwatch.h"
#include "engine/cpu_spread.h"
#include "io/dataset_reader.h"
#include "io/ingest.h"
#include "service/log.h"

namespace uclust::service {

namespace {

double UptimeMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The jobs_ index an id names: ids are "j-" followed by index + 1 in
/// decimal without leading zeros. SIZE_MAX for any other string.
std::size_t JobIndex(const std::string& id) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  if (id.size() < 3 || id.compare(0, 2, "j-") != 0 || id[2] == '0') {
    return kNone;
  }
  std::size_t number = 0;
  const char* last = id.data() + id.size();
  const auto [end, ec] = std::from_chars(id.data() + 2, last, number);
  if (ec != std::errc() || end != last) return kNone;
  return number - 1;
}

/// The real clustering runner. A moment algorithm (UCPC, MMVar, UK-means /
/// CK-means) runs its online phase on one of two moment stores. Without a
/// global budget (`cache` given) and when io::ResidentMomentsFit holds for
/// the job's budget, it is the registry's cached store; otherwise
/// OpenMomentStore decodes into the job's own admitted budget, or over
/// budget maps the registered .umom sidecar (<dataset>.umom when none is
/// registered). Every other algorithm loads the dataset fully resident.
/// Both routes are bit-identical to MakeClusterer(name)->Cluster on the
/// file. The spec's max_iters caps the CK-means Lloyd loop only.
common::Result<clustering::ClusteringResult> RunClusteringJob(
    const JobSpec& spec, const DatasetInfo& dataset,
    const engine::EngineConfig& engine_cfg, const DatasetRegistry* cache,
    MomentCacheUse* use) {
  engine::Engine eng(engine_cfg);
  common::Result<std::unique_ptr<clustering::Clusterer>> made =
      clustering::MakeClusterer(spec.algorithm, eng);
  UCLUST_RETURN_NOT_OK(made.status());
  const std::unique_ptr<clustering::Clusterer> clusterer =
      std::move(made).ValueOrDie();
  if (auto* ckmeans = dynamic_cast<clustering::CkMeans*>(clusterer.get())) {
    ckmeans->set_max_iters(spec.max_iters);
  }
  if (const auto* moments =
          dynamic_cast<const clustering::MomentClusterer*>(clusterer.get())) {
    common::Stopwatch offline;  // a hit's offline time is the lookup
    std::shared_ptr<const uncertain::MomentStore> store;
    if (cache != nullptr &&
        io::ResidentMomentsFit(dataset.n, dataset.m, eng)) {
      auto cached = cache->MomentsFor(dataset.id, use);
      UCLUST_RETURN_NOT_OK(cached.status());
      store = std::move(cached).ValueOrDie();
      // The file may have lost objects since Submit checked k.
      UCLUST_RETURN_NOT_OK(
          clustering::CheckK(dataset.path, spec.k, store->size()));
    } else {
      auto opened = clustering::OpenMomentStore(dataset.path, spec.k, eng,
                                                dataset.moments_path);
      UCLUST_RETURN_NOT_OK(opened.status());
      store = std::move(opened).ValueOrDie();
    }
    return moments->ClusterMoments(store->view(), spec.k, spec.seed, offline);
  }
  common::Result<data::UncertainDataset> read =
      io::ReadUncertainDataset(dataset.path);
  if (!read.ok()) return read.status();
  data::UncertainDataset ds = std::move(read).ValueOrDie();
  // Sampled algorithms route their draws through io::MakeSampleStore; the
  // registered .usmp sidecar (if any) rides along as a dataset annotation.
  if (!dataset.samples_path.empty()) {
    ds.set_samples_sidecar_path(dataset.samples_path);
  }
  return clusterer->Cluster(ds, spec.k, spec.seed);
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

JobManager::JobManager(const DatasetRegistry* registry, JobManagerConfig cfg)
    : registry_(registry), cfg_(std::move(cfg)) {
  if (cfg_.executors < 1) cfg_.executors = 1;
  metrics_.global_budget_bytes = cfg_.global_budget_bytes;
}

JobManager::~JobManager() { Stop(); }

void JobManager::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  // The lanes are one long-lived RunTasks batch on the engine ThreadPool:
  // the pool contributes executors-1 workers and the holder thread is the
  // batch's calling lane, so exactly cfg_.executors loops run.
  pool_ = std::make_unique<engine::ThreadPool>(
      std::max(1, cfg_.executors - 1));
  const std::size_t lanes = static_cast<std::size_t>(cfg_.executors);
  // The holder lane is placed like the pool's workers (engine/cpu_spread.h).
  const int cpu = engine::CpuForNewThread();
  pool_holder_ = std::thread([this, lanes, cpu] {
    engine::StartOnCpu(cpu);
    pool_->RunTasks(lanes, [this](std::size_t) { ExecutorLoop(); });
  });
}

void JobManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_) return;
    stop_ = true;
    for (Job* job : queue_) {
      job->state = JobState::kCancelled;
      job->finished_ms = UptimeMs();
      ++metrics_.cancelled;
    }
    queue_.clear();
    metrics_.queued = 0;
  }
  cv_.notify_all();
  if (pool_holder_.joinable()) pool_holder_.join();
  pool_.reset();
}

common::Result<std::string> JobManager::Submit(JobSpec spec,
                                               const std::string& request_id) {
  common::Result<DatasetInfo> dataset = registry_->Get(spec.dataset_id);
  if (!dataset.ok()) return dataset.status();
  // Every algorithm indexes k distinct objects; reject here what would
  // crash an executor lane.
  const std::size_t n = dataset.ValueOrDie().n;
  if (spec.k < 1 || static_cast<std::size_t>(spec.k) > n) {
    return common::Status::InvalidArgument(
        "job: need 1 <= k <= n, got k=" + std::to_string(spec.k) +
        " for dataset " + spec.dataset_id + " with n=" + std::to_string(n));
  }

  const std::size_t global = cfg_.global_budget_bytes;
  std::size_t budget = spec.engine.memory_budget_bytes;
  if (global > 0) {
    if (budget == 0) budget = global;  // unbudgeted jobs claim the pool
    if (budget > global) {
      std::lock_guard<std::mutex> lock(mu_);
      ++metrics_.rejected;
      return common::Status::OutOfRange(
          "job: memory_budget_bytes " + std::to_string(budget) +
          " exceeds the global budget " + std::to_string(global));
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    return common::Status::Internal("job: manager is shut down");
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    ++metrics_.rejected;
    return common::Status::OutOfRange(
        "job: queue full (" + std::to_string(cfg_.queue_capacity) +
        " queued jobs)");
  }
  auto job = std::make_unique<Job>();
  job->id = "j-" + std::to_string(jobs_.size() + 1);
  job->spec = std::move(spec);
  job->dataset = std::move(dataset).ValueOrDie();
  job->budget = budget;
  job->request_id = request_id;
  job->queued_ms = UptimeMs();
  Job* raw = job.get();
  jobs_.push_back(std::move(job));
  queue_.push_back(raw);
  ++metrics_.submitted;
  metrics_.queued = queue_.size();
  const std::string id = raw->id;
  lock.unlock();
  cv_.notify_all();
  LogEvent("job_queued", {{"request", request_id},
                          {"job", id},
                          {"dataset", raw->dataset.id},
                          {"algorithm", raw->spec.algorithm},
                          {"k", std::to_string(raw->spec.k)},
                          {"budget", std::to_string(budget)}});
  return id;
}

bool JobManager::Admissible(const Job& job) const {
  if (cfg_.global_budget_bytes == 0) return true;
  return budget_in_use_ + job.budget <= cfg_.global_budget_bytes;
}

void JobManager::ExecutorLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // FIFO head-of-line admission: only the queue head is eligible, and
      // it runs only when its budget fits. A blocked head blocks the lane
      // — that is the serialization guarantee, not a defect.
      for (;;) {
        if (stop_) return;
        if (!queue_.empty()) {
          if (Admissible(*queue_.front())) break;
          if (!queue_.front()->counted_admission_wait) {
            queue_.front()->counted_admission_wait = true;
            ++metrics_.admission_waits;
          }
        }
        cv_.wait(lock);
      }
      job = queue_.front();
      queue_.pop_front();
      metrics_.queued = queue_.size();
      job->state = JobState::kRunning;
      job->started_ms = UptimeMs();
      budget_in_use_ += job->budget;
      metrics_.budget_in_use_bytes = budget_in_use_;
      ++metrics_.running;
      metrics_.max_running_concurrent =
          std::max(metrics_.max_running_concurrent, metrics_.running);
    }
    cv_.notify_all();  // the new head may be admissible for another lane

    LogEvent("job_start", {{"job", job->id},
                           {"request", job->request_id},
                           {"algorithm", job->spec.algorithm},
                           {"budget", std::to_string(job->budget)}});

    // Run outside the lock. The admitted budget becomes the job's engine
    // budget so the per-job memory machinery enforces it.
    // Under a global budget the moment cache is off: a cached reduction
    // would sit outside admission control, so each job decodes into its
    // own admitted budget instead.
    engine::EngineConfig engine_cfg = job->spec.engine;
    const bool budgeted = cfg_.global_budget_bytes > 0;
    if (budgeted) engine_cfg.memory_budget_bytes = job->budget;
    MomentCacheUse cache_use = MomentCacheUse::kNone;
    common::Result<clustering::ClusteringResult> outcome =
        cfg_.runner_override
            ? cfg_.runner_override(job->spec, job->dataset, engine_cfg)
            : RunClusteringJob(job->spec, job->dataset, engine_cfg,
                               budgeted ? nullptr : registry_, &cache_use);

    // Packed here, outside the lock: the record keeps labels only when the
    // spec asks for them, at the narrowest width that holds them.
    std::shared_ptr<const clustering::PackedResult> packed;
    std::size_t retained_bytes = 0;
    if (outcome.ok()) {
      packed = std::make_shared<const clustering::PackedResult>(
          clustering::PackResult(std::move(outcome).ValueOrDie(),
                                 job->spec.include_labels));
      retained_bytes = packed->RetainedBytes();
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      job->finished_ms = UptimeMs();
      if (packed != nullptr) {
        job->result = std::move(packed);
        job->state = JobState::kDone;
        ++metrics_.completed;
        ++metrics_.results_retained;
        metrics_.result_bytes_retained += retained_bytes;
      } else {
        job->error = outcome.status().ToString();
        job->state = JobState::kFailed;
        ++metrics_.failed;
      }
      budget_in_use_ -= job->budget;
      metrics_.budget_in_use_bytes = budget_in_use_;
      --metrics_.running;
    }
    cv_.notify_all();
    LogEvent("job_finish",
             {{"job", job->id},
              {"request", job->request_id},
              {"state", JobStateName(job->state)},
              {"moment_cache", MomentCacheUseName(cache_use)},
              {"retained_bytes", std::to_string(retained_bytes)},
              {"ms", std::to_string(job->finished_ms - job->started_ms)}});
  }
}

common::Result<JobSnapshot> JobManager::Get(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Job* job = FindLocked(id);
  if (job == nullptr) {
    return common::Status::NotFound("job: unknown job id: " + id);
  }
  return SnapshotLocked(*job);
}

common::Status JobManager::Cancel(const std::string& id) {
  std::unique_lock<std::mutex> lock(mu_);
  Job* found = FindLocked(id);
  if (found == nullptr) {
    return common::Status::NotFound("job: unknown job id: " + id);
  }
  switch (found->state) {
    case JobState::kQueued: {
      queue_.erase(std::find(queue_.begin(), queue_.end(), found));
      found->state = JobState::kCancelled;
      found->finished_ms = UptimeMs();
      ++metrics_.cancelled;
      metrics_.queued = queue_.size();
      lock.unlock();
      cv_.notify_all();  // the head may have changed
      LogEvent("job_cancelled", {{"job", id}});
      return common::Status::Ok();
    }
    case JobState::kRunning:
      return common::Status::InvalidArgument(
          "job: " + id + " is running and cannot be cancelled");
    default:
      return common::Status::Ok();  // already terminal — idempotent
  }
}

bool JobManager::Wait(const std::string& id, int timeout_ms) const {
  const auto terminal = [this, &id]() {
    const Job* job = FindLocked(id);
    if (job == nullptr) return false;  // unknown id never becomes terminal
    return job->state == JobState::kDone || job->state == JobState::kFailed ||
           job->state == JobState::kCancelled;
  };
  std::unique_lock<std::mutex> lock(mu_);
  if (timeout_ms < 0) {
    cv_.wait(lock, terminal);
    return true;
  }
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), terminal);
}

JobMetrics JobManager::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

JobManager::Job* JobManager::FindLocked(const std::string& id) const {
  const std::size_t index = JobIndex(id);
  return index < jobs_.size() ? jobs_[index].get() : nullptr;
}

JobSnapshot JobManager::SnapshotLocked(const Job& job) const {
  JobSnapshot snap;
  snap.id = job.id;
  snap.state = job.state;
  snap.spec = job.spec;
  snap.dataset = job.dataset;
  snap.effective_budget_bytes = job.budget;
  snap.error = job.error;
  snap.result = job.result;
  snap.request_id = job.request_id;
  snap.queued_ms = job.queued_ms;
  snap.started_ms = job.started_ms;
  snap.finished_ms = job.finished_ms;
  return snap;
}

}  // namespace uclust::service
