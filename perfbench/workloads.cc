// The three benchmark workloads. Each runs as a closed loop in this process:
// set-up (repeated, median reported), one untimed warm-up job, a fixed list
// of timed jobs, then output checks outside the timed section. Jobs go only
// through the library's public entry points; the spans around those calls
// are the per-layer metrics of a traced run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "clustering/ckmeans.h"
#include "clustering/fdbscan.h"
#include "clustering/foptics.h"
#include "clustering/mmvar.h"
#include "clustering/registry.h"
#include "clustering/result_json.h"
#include "clustering/spatial_index.h"
#include "clustering/ucpc.h"
#include "clustering/ukmedoids.h"
#include "common/json.h"
#include "engine/engine.h"
#include "eval/external.h"
#include "harness.h"
#include "io/dataset_reader.h"
#include "io/ingest.h"
#include "io/sample_file.h"
#include "service/http_client.h"
#include "service/service.h"

namespace perfbench {

namespace {

namespace clu = uclust::clustering;
namespace io = uclust::io;
using uclust::engine::Engine;
using uclust::engine::EngineConfig;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(const std::vector<double>& v) { return PercentileOf(v, 0.5).value; }

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return Ratio(s, static_cast<double>(v.size()));
}

uint64_t Combine(uint64_t h, uint64_t fp) {
  return MixSeed(h ^ fp, 0x51ed);
}

/// F-measure against the reference classes; negative (noise) labels form
/// one extra cluster so the contingency table stays well-formed.
double FMeasureOf(const std::vector<int>& reference, std::vector<int> labels) {
  int top = 0;
  for (int l : labels) top = std::max(top, l);
  for (int& l : labels) {
    if (l < 0) l = top + 1;
  }
  return uclust::eval::FMeasure(reference, labels);
}

EngineConfig Config(int threads, std::size_t budget_bytes) {
  EngineConfig cfg;
  cfg.num_threads = threads;
  cfg.memory_budget_bytes = budget_bytes;
  return cfg;
}

/// The planned timed jobs: `seed_count` distinct seeds, then the first
/// kRepeatedSeeds of them again, so every run checks that repeated jobs
/// agree bit for bit. In a traced run every other job is traced; the rest
/// give the untraced job time the tracing overhead is measured against.
struct PlannedJob {
  uint64_t seed = 0;
  std::size_t seed_index = 0;
  bool traced = false;
};

std::vector<PlannedJob> PlanJobs(const RunOptions& opt, uint64_t stream,
                                 int seed_count) {
  std::vector<PlannedJob> jobs;
  const int total = seed_count + std::min(seed_count, kRepeatedSeeds);
  for (int j = 0; j < total; ++j) {
    const int s = j % seed_count;
    jobs.push_back({MixSeed(opt.seed, stream * 1000 + s) % 1000003,
                    static_cast<std::size_t>(s), opt.trace && j % 2 == 1});
  }
  return jobs;
}

/// What a finished job left behind for the checks and the metrics.
struct JobResult {
  std::size_t seed_index = 0;
  bool traced = false;
  bool ok = false;
  double wall_s = 0.0;
  double job_s = 0.0;  // wall_s in reference-speed seconds (SpeedProbe)
  uint64_t fingerprint = 0;
  std::vector<double> f_values;
};

/// Every copy of a seed must agree bit for bit on fingerprint and
/// F-measure. A copy that disagrees with the first counts as a failed job.
void CheckRepeats(const std::vector<JobResult>& jobs, bool inject_fault,
                  RunOutcome* out) {
  std::map<std::size_t, const JobResult*> first;
  for (const JobResult& j : jobs) {
    if (!j.ok) continue;
    auto [it, fresh] = first.emplace(j.seed_index, &j);
    if (fresh) continue;
    uint64_t expected = it->second->fingerprint;
    if (inject_fault && j.seed_index == 0) expected ^= 1;
    if (j.fingerprint != expected || j.f_values != it->second->f_values) {
      ++out->failed;
      out->Fail("seed #" + std::to_string(j.seed_index) +
                " gave a different result on a repeated job");
    }
  }
}

/// Peak RSS of this process so far, less the speed probe's ring, which is
/// resident from the start and is not the workload's. Read as soon as the
/// timed jobs end, so the output checks that follow cannot raise it.
double PeakRssMb(const SpeedProbe& probe) {
  return uclust::bench::PeakRssKb() / 1024.0 -
         static_cast<double>(probe.bytes()) / (1024.0 * 1024.0);
}

/// End-to-end job metrics shared by every workload, plus the traced run's
/// overhead figures. Job times and `setup_s` are in reference-speed
/// seconds; the wall-clock job median and the probe's slice median go to
/// the ENV line. jobs_per_s is the closed loop's throughput, `clients`
/// jobs in flight at all times: clients * jobs / (sum of job times). Taking
/// it from the per-job times gives it the per-job speed scaling too.
void ReportJobs(const std::vector<JobResult>& jobs, int clients,
                double setup_s, double peak_rss_mb, const SpeedProbe& probe,
                const RunOptions& opt, RunOutcome* out) {
  std::vector<double> job_s, walls, traced, untraced, f;
  double busy_s = 0.0;
  for (const JobResult& j : jobs) {
    if (!j.ok) continue;
    job_s.push_back(j.job_s);
    busy_s += j.job_s;
    walls.push_back(j.wall_s);
    (j.traced ? traced : untraced).push_back(j.job_s);
    f.insert(f.end(), j.f_values.begin(), j.f_values.end());
  }
  const Percentile p50 = PercentileOf(job_s, 0.5);
  out->E2e("setup_s", setup_s, "s");
  out->E2e("job_p50_s", p50.value, "s");
  out->E2e("jobs_per_s",
           Ratio(static_cast<double>(clients) * static_cast<double>(job_s.size()),
                 busy_s),
           "1/s");
  out->E2e("f_measure", Mean(f), "ratio");
  out->E2e("peak_rss_mb", peak_rss_mb, "MB");
  out->Env("job_p50_samples", static_cast<double>(p50.count));
  out->Env("job_p50_wall_s", Median(walls));
  out->Env("probe_slice_p50_s", Median(probe.slices()));
  out->Env("probe_slices", static_cast<double>(probe.slices().size()));
  out->Env("f_measure_samples", static_cast<double>(f.size()));
  out->Env("failed_frac", Ratio(out->failed, out->attempted));
  if (opt.trace) {
    const double t = Median(traced), u = Median(untraced);
    out->Layer("trace.job_p50_s", t, "s");
    out->Layer("trace.untraced_job_p50_s", u, "s");
    out->Layer("trace.overhead_s", t - u, "s");
    out->Env("trace_samples", static_cast<double>(traced.size()));
  }
  std::printf("[perfbench] %zu timed jobs, job p50 %.4f s (wall %.4f s) over "
              "%zu samples, %d failed\n[perfbench] job seconds (wall):",
              job_s.size(), p50.value, Median(walls), p50.count, out->failed);
  for (double w : walls) std::printf(" %.4f", w);
  std::printf("\n");
}

bool LabelsInRange(const std::vector<int>& labels, std::size_t n, int k) {
  if (labels.size() != n) return false;
  return std::all_of(labels.begin(), labels.end(),
                     [k](int l) { return l >= 0 && l < k; });
}

std::string ShapeJson(const Shape& s, int k) {
  return "{\"n\": " + std::to_string(s.n) + ", \"m\": " + std::to_string(s.m) +
         ", \"classes\": " + std::to_string(s.classes) +
         ", \"family\": \"mix\", \"generator_seed\": " +
         std::to_string(s.seed) + ", \"k\": " + std::to_string(k) + "}";
}

// ---------------------------------------------------- centroid workloads --

constexpr int kCentroidK = 16;
/// Nominal job seconds on the reference 4-core machine; they size the job
/// lists (see SeedCount).
constexpr double kCentroidJobS = 0.28;

struct CentroidJob {
  uint64_t fingerprint = 0;
  std::vector<double> f_values;
  std::string error;  // empty when the job's outputs are well-formed
  int ucpc_passes = 0, mmvar_passes = 0, ck_iterations = 0;
  int64_t ck_evals = 0, ck_skipped = 0;
  std::size_t moment_bytes = 0;
  bool mapped = false;
};

/// One centroid job: ingest -> UCPC, MMVar, CK-means -> F-measure. Span
/// names carry `tag` as a prefix.
CentroidJob RunCentroidJob(const std::string& path, const Engine& eng,
                           const std::vector<int>& reference, uint64_t seed,
                           Tracer* tracer, int job,
                           const std::string& tag = "") {
  CentroidJob out;
  Tracer::Span job_span(tracer, tag + "job", job);
  uclust::common::Result<uclust::uncertain::MomentStorePtr> store_or =
      [&] {
        Tracer::Span s(tracer, tag + "io.ingest", job);
        return io::StreamMomentStoreFromFile(path, eng);
      }();
  if (!store_or.ok()) {
    out.error = store_or.status().ToString();
    return out;
  }
  const uclust::uncertain::MomentStorePtr store =
      std::move(store_or).ValueOrDie();
  out.mapped = store->backend() == uclust::uncertain::MomentBackend::kMapped;
  const uclust::uncertain::MomentView view = store->view();
  const std::size_t n = view.size();

  clu::LocalSearchOutcome ucpc, mmvar;
  clu::CkMeans::Outcome ck;
  {
    Tracer::Span s(tracer, tag + "local_search.ucpc", job);
    ucpc = clu::Ucpc::RunOnMoments(view, kCentroidK, seed,
                                   clu::Ucpc::Params(), eng);
  }
  {
    Tracer::Span s(tracer, tag + "local_search.mmvar", job);
    mmvar = clu::Mmvar::RunOnMoments(view, kCentroidK, seed,
                                     clu::Mmvar::Params(), eng);
  }
  {
    Tracer::Span s(tracer, tag + "ckmeans.run", job);
    ck = clu::CkMeans::RunOnMoments(view, kCentroidK, seed,
                                    clu::CkMeans::Params(), eng);
  }
  out.moment_bytes = store->moment_bytes_resident();
  {
    Tracer::Span s(tracer, tag + "eval.f_measure", job);
    for (const std::vector<int>* labels : {&ucpc.labels, &mmvar.labels,
                                           &ck.labels}) {
      if (!LabelsInRange(*labels, n, kCentroidK)) {
        out.error = "labels out of range or of the wrong length";
        return out;
      }
      out.f_values.push_back(FMeasureOf(reference, *labels));
    }
  }
  for (double obj : {ucpc.objective, mmvar.objective, ck.objective}) {
    if (!std::isfinite(obj)) out.error = "non-finite objective";
  }
  out.fingerprint = Combine(
      Combine(clu::ResultFingerprint(ucpc.labels, ucpc.objective),
              clu::ResultFingerprint(mmvar.labels, mmvar.objective)),
      clu::ResultFingerprint(ck.labels, ck.objective));
  out.ucpc_passes = ucpc.passes;
  out.mmvar_passes = mmvar.passes;
  out.ck_iterations = ck.iterations;
  out.ck_evals = ck.center_distance_evals;
  out.ck_skipped = ck.bounds_skipped;
  return out;
}

}  // namespace

RunOutcome RunCentroidResident(const RunOptions& opt, Tracer* tracer) {
  RunOutcome out;
  const std::string path = DatasetPath(opt.data_dir, kCentroidShape);
  const std::string sidecar = path + ".umom";
  const std::size_t n = kCentroidShape.n, m = kCentroidShape.m;
  // The mapped check's budget: 1/8 of the resident moment columns.
  const std::size_t mapped_budget = (3 * m + 1) * n * sizeof(double) / 8;

  // Set-up: the engines, the reference classes and the .umom sidecar the
  // mapped check reads. Repeated from scratch; median reported.
  SpeedProbe probe;
  std::vector<double> setup;
  std::vector<int> reference;
  std::unique_ptr<Engine> eng, mapped_eng;
  for (int r = 0; r < kSetupRepeats; ++r) {
    DeleteSidecars(opt.data_dir);
    const double slice = probe.Calibrate();
    Tracer::Span span(tracer, "setup", -1);
    const Clock::time_point t0 = Clock::now();
    eng = std::make_unique<Engine>(Config(opt.engine_threads, 0));
    mapped_eng =
        std::make_unique<Engine>(Config(opt.engine_threads, mapped_budget));
    io::BinaryDatasetReader reader;
    uclust::common::Status st = reader.Open(path);
    if (st.ok()) st = reader.ReadLabels(&reference);
    if (st.ok()) {
      // The jobs' own entry point, so the sidecar gets the chunk size the
      // budget asks for and the check reuses it.
      Tracer::Span s(tracer, "io.moment_sidecar_build", -1);
      auto store = io::StreamMomentStoreFromFile(path, *mapped_eng);
      st = store.status();
      if (st.ok() && store.ValueOrDie()->backend() !=
                         uclust::uncertain::MomentBackend::kMapped) {
        st = uclust::common::Status::Internal("budget did not select mapped");
      }
    }
    setup.push_back(SpeedProbe::Scale(Since(t0), slice));
    if (!st.ok()) {
      out.Fail("set-up: " + st.ToString());
      return out;
    }
  }
  FlushSidecars(opt.data_dir);
  const uint64_t sidecar_id = FileIdentity(sidecar);

  const int seed_count = SeedCount(opt.seconds, kCentroidJobS, 2);
  const std::vector<PlannedJob> plan = PlanJobs(opt, /*stream=*/1, seed_count);

  // Untimed warm-up on seeds outside the plan, for about a second: the
  // first jobs of a process ran up to twice as slow as later ones.
  tracer->set_recording(false);
  const int warmups = WarmupJobs(kCentroidJobS);
  for (int w = 0; w < warmups; ++w) {
    const CentroidJob warm = RunCentroidJob(
        path, *eng, reference, MixSeed(opt.seed, 900 + w) % 1000003, tracer, -1);
    if (!warm.error.empty()) out.Fail("warm-up job: " + warm.error);
  }

  std::vector<JobResult> jobs;
  std::vector<CentroidJob> details;
  for (std::size_t j = 0; j < plan.size(); ++j) {
    tracer->set_recording(plan[j].traced);
    const double slice = probe.Calibrate();
    const Clock::time_point t0 = Clock::now();
    CentroidJob job = RunCentroidJob(path, *eng, reference, plan[j].seed,
                                     tracer, static_cast<int>(j));
    JobResult r;
    r.wall_s = Since(t0);
    r.job_s = SpeedProbe::Scale(r.wall_s, slice);
    r.seed_index = plan[j].seed_index;
    r.traced = plan[j].traced;
    r.ok = job.error.empty() && !job.mapped;
    r.fingerprint = job.fingerprint;
    r.f_values = job.f_values;
    ++out.attempted;
    if (!r.ok) {
      ++out.failed;
      out.Fail("job " + std::to_string(j) + ": " +
               (job.error.empty() ? "not served resident" : job.error));
    }
    jobs.push_back(std::move(r));
    details.push_back(std::move(job));
  }
  const double peak_rss_mb = PeakRssMb(probe);
  tracer->set_recording(true);

  // Output checks, outside the timed section. Besides the repeats, the
  // first seed runs again on the mapped moment store from the sidecar
  // set-up built; it must give the resident answer bit for bit. A timed
  // workload on the mapped store was too noisy on the reference machine
  // (see BENCHMARK.json), so the mapped store is checked and traced here.
  CheckRepeats(jobs, opt.inject_fault, &out);
  const CentroidJob mapped = RunCentroidJob(path, *mapped_eng, reference,
                                            plan[0].seed, tracer, -1, "mapped.");
  ++out.attempted;
  uint64_t expected = jobs[0].fingerprint;
  if (opt.inject_fault) expected ^= 1;
  if (!mapped.error.empty() || !mapped.mapped ||
      mapped.fingerprint != expected || mapped.f_values != jobs[0].f_values) {
    ++out.failed;
    out.Fail("the mapped moment store gave a different result");
  }
  if (sidecar_id == 0 || FileIdentity(sidecar) != sidecar_id) {
    out.Fail("the .umom sidecar was rewritten after set-up");
  }

  ReportJobs(jobs, 1, Median(setup), peak_rss_mb, probe, opt, &out);

  std::vector<double> ucpc_passes, mmvar_passes, ck_iters, ck_evals;
  double evals = 0, skipped = 0;
  std::size_t moment_peak = 0;
  for (const CentroidJob& d : details) {
    ucpc_passes.push_back(d.ucpc_passes);
    mmvar_passes.push_back(d.mmvar_passes);
    ck_iters.push_back(d.ck_iterations);
    ck_evals.push_back(static_cast<double>(d.ck_evals));
    evals += static_cast<double>(d.ck_evals);
    skipped += static_cast<double>(d.ck_skipped);
    moment_peak = std::max(moment_peak, d.moment_bytes);
  }
  out.Env("engine_threads", opt.engine_threads);
  out.Env("dataset", ShapeJson(kCentroidShape, kCentroidK));
  out.Env("mapped_check_budget_bytes", static_cast<double>(mapped_budget));
  out.Env("distinct_seeds", seed_count);
  out.Env("warmup_jobs", warmups);
  out.Env("timed_jobs", static_cast<double>(plan.size()));

  if (opt.trace) {
    const std::vector<double> ingest = tracer->Durations("io.ingest");
    const std::vector<double> ucpc = tracer->Durations("local_search.ucpc");
    double ucpc_total = 0.0;
    for (double d : ucpc) ucpc_total += d;
    double traced_passes = 0.0;
    for (std::size_t j = 0; j < plan.size(); ++j) {
      if (plan[j].traced) traced_passes += details[j].ucpc_passes;
    }
    out.Layer("io.ingest_s", Median(ingest), "s");
    out.Layer("io.ingest_mb_per_s",
              Ratio(static_cast<double>(FileBytes(path)) / 1e6, Median(ingest)),
              "MB/s");
    out.Layer("io.moment_sidecar_build_s",
              Median(tracer->Durations("io.moment_sidecar_build")), "s");
    out.Layer("moment_store.bytes_resident_peak",
              static_cast<double>(moment_peak), "bytes");
    out.Layer("moment_store.mapped_bytes_resident_peak",
              static_cast<double>(mapped.moment_bytes), "bytes");
    out.Layer("local_search.ucpc_s", Median(ucpc), "s");
    out.Layer("local_search.ucpc_passes", Mean(ucpc_passes), "count");
    out.Layer("local_search.ucpc_s_per_pass", Ratio(ucpc_total, traced_passes),
              "s");
    out.Layer("local_search.mmvar_s",
              Median(tracer->Durations("local_search.mmvar")), "s");
    out.Layer("local_search.mmvar_passes", Mean(mmvar_passes), "count");
    out.Layer("local_search.ucpc_mapped_s",
              Median(tracer->Durations("mapped.local_search.ucpc")), "s");
    out.Layer("local_search.mmvar_mapped_s",
              Median(tracer->Durations("mapped.local_search.mmvar")), "s");
    out.Layer("ckmeans.run_s", Median(tracer->Durations("ckmeans.run")), "s");
    out.Layer("ckmeans.iterations", Mean(ck_iters), "count");
    out.Layer("ckmeans.center_distance_evals", Mean(ck_evals), "count");
    out.Layer("ckmeans.skip_ratio", Ratio(skipped, evals + skipped), "ratio");
    out.Layer("simd.ed2_evals_per_s", Ed2EvalsPerSecond(m, opt.seed), "1/s");
  }
  return out;
}

// -------------------------------------------------------------- pairwise --

namespace {

constexpr int kPairwiseK = 8;
constexpr std::size_t kPairwiseBudget = 64 * 1024;
/// Nominal job seconds on the reference 4-core machine (see SeedCount).
constexpr double kPairwiseJobS = 0.14;

/// The (samples per object, sample seed) pair each sampled algorithm draws
/// with by default: one .usmp sidecar per pair.
std::vector<std::pair<int, uint64_t>> SampleParams() {
  return {{clu::UkMedoids::Params().samples, clu::UkMedoids::Params().sample_seed},
          {clu::Fdbscan::Params().samples, clu::Fdbscan::Params().sample_seed},
          {clu::Foptics::Params().samples, clu::Foptics::Params().sample_seed}};
}

/// Identity of every sidecar file in `dir`, to prove jobs reuse them.
std::map<std::string, uint64_t> SidecarIdentities(const std::string& dir) {
  std::map<std::string, uint64_t> ids;
  ForEachSidecar(dir, [&ids](const std::filesystem::path& p) {
    ids[p.string()] = FileIdentity(p.string());
  });
  return ids;
}

/// Counters of one pairwise algorithm run.
struct PairwiseCounts {
  std::vector<double> pair_evals, online_s;
  double table_peak = 0, hits = 0, misses = 0, pruned = 0, candidates = 0,
         bound_tests = 0, pruned_by_index = 0, runs = 0;

  void Add(const clu::ClusteringResult& r) {
    pair_evals.push_back(static_cast<double>(r.pair_evaluations));
    online_s.push_back(r.online_ms / 1000.0);
    table_peak = std::max(table_peak, static_cast<double>(r.table_bytes_peak));
    hits += static_cast<double>(r.tile_warm_hits);
    misses += static_cast<double>(r.tile_warm_misses);
    pruned += static_cast<double>(r.pairs_pruned);
    candidates += static_cast<double>(r.index_candidates);
    bound_tests += static_cast<double>(r.index_bound_tests);
    pruned_by_index += static_cast<double>(r.pairs_pruned_by_index);
    runs += 1;
  }
};

/// Per-layer metrics of the pairwise store and spatial index, summed over
/// the algorithms in `counts` and averaged per job.
void ReportPairwiseLayers(const std::map<std::string, PairwiseCounts>& counts,
                          double jobs, std::size_t n, RunOutcome* out) {
  double table_peak = 0, hits = 0, misses = 0, pruned = 0, candidates = 0,
         bound_tests = 0, pruned_by_index = 0, runs = 0;
  for (const auto& [name, c] : counts) {
    out->Layer("pairwise_store.pair_evaluations." + name, Mean(c.pair_evals),
               "count");
    out->Layer(name + ".online_s", Median(c.online_s), "s");
    table_peak = std::max(table_peak, c.table_peak);
    hits += c.hits;
    misses += c.misses;
    pruned += c.pruned;
    candidates += c.candidates;
    bound_tests += c.bound_tests;
    pruned_by_index += c.pruned_by_index;
    runs += c.runs;
  }
  const double all_pairs = static_cast<double>(n) * (n - 1) / 2.0;
  out->Layer("pairwise_store.table_bytes_peak", table_peak, "bytes");
  out->Layer("pairwise_store.warm_hit_ratio", Ratio(hits, hits + misses),
             "ratio");
  out->Layer("pairwise_store.pairs_pruned", Ratio(pruned, jobs), "count");
  out->Layer("spatial_index.candidates", Ratio(candidates, jobs), "count");
  out->Layer("spatial_index.bound_tests", Ratio(bound_tests, jobs), "count");
  out->Layer("spatial_index.prune_ratio",
             Ratio(pruned_by_index, runs * all_pairs), "ratio");
}

/// Standalone SpatialIndex construction over the dataset's region boxes,
/// with the structure the engine's "auto" choice picks (median of 5).
double SpatialIndexBuildSeconds(const uclust::data::UncertainDataset& ds) {
  std::vector<double> t;
  const clu::SpatialIndexKind kind = clu::ResolveSpatialIndexKind(
      clu::SpatialIndexChoice::kAuto, ds.dims());
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    const clu::SpatialIndex index(ds.objects(), kind);
    t.push_back(Since(t0));
    if (index.size() != ds.size()) return 0.0;
  }
  return Median(t);
}

}  // namespace

RunOutcome RunPairwiseSampled(const RunOptions& opt, Tracer* tracer) {
  RunOutcome out;
  const std::string path = DatasetPath(opt.data_dir, kPairwiseShape);

  // Set-up: the engine and one .usmp sidecar per sampled algorithm, built
  // through the same factory the algorithms call. Repeated from scratch.
  SpeedProbe probe;
  std::vector<double> setup;
  std::unique_ptr<Engine> eng;
  for (int r = 0; r < kSetupRepeats; ++r) {
    DeleteSidecars(opt.data_dir);
    const double slice = probe.Calibrate();
    Tracer::Span span(tracer, "setup", -1);
    const Clock::time_point t0 = Clock::now();
    eng = std::make_unique<Engine>(Config(opt.engine_threads, kPairwiseBudget));
    auto ds = io::ReadUncertainDataset(path);
    uclust::common::Status st = ds.status();
    for (const auto& [samples, seed] : SampleParams()) {
      if (!st.ok()) break;
      Tracer::Span s(tracer, "io.sample_sidecar_build", -1);
      auto store = io::MakeSampleStore(ds.ValueOrDie(), samples, seed, *eng);
      st = store.status();
      if (st.ok() && store.ValueOrDie()->backend() !=
                         uclust::uncertain::SampleBackend::kMapped) {
        st = uclust::common::Status::Internal("budget did not select mapped");
      }
    }
    setup.push_back(SpeedProbe::Scale(Since(t0), slice));
    if (!st.ok()) {
      out.Fail("set-up: " + st.ToString());
      return out;
    }
  }
  const double setup_s = Median(setup);

  std::vector<std::unique_ptr<clu::Clusterer>> algos;
  const std::vector<std::string> names = {"ukmedoids", "fdbscan", "foptics"};
  for (const char* name : {"UK-medoids", "FDBSCAN", "FOPTICS"}) {
    auto c = clu::MakeClusterer(name, *eng);
    if (!c.ok()) {
      out.Fail(c.status().ToString());
      return out;
    }
    algos.push_back(std::move(c).ValueOrDie());
  }

  std::map<std::string, PairwiseCounts> counts;
  // One job: read the dataset, then UK-medoids, FDBSCAN and FOPTICS.
  auto run_job = [&](uint64_t seed, int job, JobResult* r, bool count) {
    Tracer::Span job_span(tracer, "job", job);
    auto ds_or = [&] {
      Tracer::Span s(tracer, "io.read_dataset", job);
      return io::ReadUncertainDataset(path);
    }();
    if (!ds_or.ok()) return;
    const uclust::data::UncertainDataset ds = std::move(ds_or).ValueOrDie();
    uint64_t fp = 0;
    r->ok = true;
    for (std::size_t a = 0; a < algos.size(); ++a) {
      clu::ClusteringResult res;
      {
        Tracer::Span s(tracer, names[a], job);
        res = algos[a]->Cluster(ds, kPairwiseK, seed);
      }
      if (res.labels.size() != ds.size()) r->ok = false;
      fp = Combine(fp, clu::ResultFingerprint(res.labels, res.objective));
      r->f_values.push_back(FMeasureOf(ds.labels(), res.labels));
      if (count) counts[names[a]].Add(res);
    }
    r->fingerprint = fp;
  };

  const int seed_count = SeedCount(opt.seconds, kPairwiseJobS, 2);
  const std::vector<PlannedJob> plan = PlanJobs(opt, /*stream=*/2, seed_count);

  tracer->set_recording(false);
  JobResult warm;
  run_job(MixSeed(opt.seed, 999) % 1000003, -1, &warm, false);
  if (!warm.ok) out.Fail("warm-up job failed");
  // The warm-up may build what set-up did not; from here on nothing may.
  // The jobs must read one default-path .usmp per sampled algorithm: a store
  // that fell back to a self-deleting temp spill would leave none, and the
  // reuse check below would pass without testing anything.
  FlushSidecars(opt.data_dir);
  const std::map<std::string, uint64_t> sidecars =
      SidecarIdentities(opt.data_dir);
  if (sidecars.size() != SampleParams().size()) {
    out.Fail("expected " + std::to_string(SampleParams().size()) +
             " .usmp sidecars after the warm-up, found " +
             std::to_string(sidecars.size()));
  }

  std::vector<JobResult> jobs;
  for (std::size_t j = 0; j < plan.size(); ++j) {
    tracer->set_recording(plan[j].traced);
    JobResult r;
    r.seed_index = plan[j].seed_index;
    r.traced = plan[j].traced;
    const double slice = probe.Calibrate();
    const Clock::time_point t0 = Clock::now();
    run_job(plan[j].seed, static_cast<int>(j), &r, true);
    r.wall_s = Since(t0);
    r.job_s = SpeedProbe::Scale(r.wall_s, slice);
    ++out.attempted;
    if (!r.ok) {
      ++out.failed;
      out.Fail("job " + std::to_string(j) + " failed");
    }
    jobs.push_back(std::move(r));
  }
  const double peak_rss_mb = PeakRssMb(probe);
  tracer->set_recording(true);

  CheckRepeats(jobs, opt.inject_fault, &out);
  if (SidecarIdentities(opt.data_dir) != sidecars) {
    out.Fail("a .usmp sidecar was built or rebuilt during the timed jobs");
  }
  ReportJobs(jobs, 1, setup_s, peak_rss_mb, probe, opt, &out);
  out.Env("engine_threads", opt.engine_threads);
  out.Env("dataset", ShapeJson(kPairwiseShape, kPairwiseK));
  out.Env("memory_budget_bytes", static_cast<double>(kPairwiseBudget));
  out.Env("distinct_seeds", seed_count);
  out.Env("timed_jobs", static_cast<double>(plan.size()));
  out.Env("sidecars", static_cast<double>(sidecars.size()));

  if (opt.trace) {
    auto ds = io::ReadUncertainDataset(path);
    if (!ds.ok()) {
      out.Fail(ds.status().ToString());
      return out;
    }
    // Peak mapped sample windows while one full pass reads every row.
    std::size_t sample_bytes_peak = 0;
    auto store = io::MakeSampleStore(ds.ValueOrDie(), SampleParams()[0].first,
                                     SampleParams()[0].second, *eng);
    if (store.ok()) {
      const uclust::uncertain::SampleView view = store.ValueOrDie()->view();
      double sum = 0.0;
      for (std::size_t i = 0; i < view.size(); ++i) sum += view.ObjectSamples(i)[0];
      if (!std::isfinite(sum)) out.Fail("non-finite sample");
      sample_bytes_peak = store.ValueOrDie()->sample_bytes_resident();
    }
    out.Layer("io.sample_sidecar_build_s",
              Median(tracer->Durations("io.sample_sidecar_build")), "s");
    out.Layer("io.read_dataset_s", Median(tracer->Durations("io.read_dataset")),
              "s");
    out.Layer("sample_store.bytes_resident_peak",
              static_cast<double>(sample_bytes_peak), "bytes");
    ReportPairwiseLayers(counts, static_cast<double>(plan.size()),
                         kPairwiseShape.n, &out);
    out.Layer("spatial_index.build_s", SpatialIndexBuildSeconds(ds.ValueOrDie()),
              "s");
    out.Layer("simd.ed2_evals_per_s",
              Ed2EvalsPerSecond(kPairwiseShape.m, opt.seed), "1/s");
  }
  return out;
}

// --------------------------------------------------------------- service --

namespace {

namespace svc = uclust::service;

constexpr int kServiceExecutors = 2;
constexpr int kServiceClients = 2;
constexpr std::size_t kServiceHttpWorkers = 1;
/// The clients poll every 0.25 ms, under 1% of a job, and sleep in
/// between so the client thread stays mostly idle.
constexpr auto kPollStep = std::chrono::microseconds(250);
/// They run one probe slice (about 0.3 ms) every 5 ms; a job sees about a
/// dozen, and the probe keeps its core busy 6% of the time.
constexpr auto kSliceEvery = std::chrono::milliseconds(5);
/// Seconds per cycle (four jobs per client) the job list is sized with. A
/// cycle ran in about 0.25 s on the reference 4-core machine, so the timed
/// jobs take about 60% of --seconds and set-up and checks fit in the rest.
constexpr double kServiceCycleS = 0.4;

/// One job spec the clients submit: algorithm, dataset and seed.
struct ServiceSpec {
  bool ckmeans = true;
  uint64_t seed = 0;
};

std::string SpecJson(const ServiceSpec& s, const std::string& dataset_id) {
  uclust::common::JsonWriter w;
  w.BeginObject();
  w.KV("dataset_id", dataset_id);
  w.KV("algorithm", s.ckmeans ? "CK-means" : "UK-medoids");
  w.KV("k", s.ckmeans ? kCentroidK : kPairwiseK);
  w.KV("seed", static_cast<int64_t>(s.seed));
  w.KV("include_labels", true);
  w.Key("engine");
  w.BeginObject();
  w.KV("threads", 1);
  w.EndObject();
  w.EndObject();
  return w.str();
}

/// What the clients measured for one job.
struct ServiceJob {
  std::size_t spec = 0;  // index into the spec list
  bool traced = false;
  bool ok = false;
  std::string error;
  double e2e_s = 0, submit_s = 0, fetch_s = 0;
  double queued_ms = 0, started_ms = 0, finished_ms = 0;
  int polls = 0;
  std::vector<double> slices;  // probe slices run while the job was out
  std::string body;  // the result body, parsed after the timed section
};

uclust::common::Result<uclust::common::JsonValue> FetchJson(
    int port, const std::string& method, const std::string& target,
    const std::string& body, int want_status) {
  auto fetched = svc::HttpFetch(port, method, target, body);
  if (!fetched.ok()) return fetched.status();
  svc::HttpClientResponse resp = std::move(fetched).ValueOrDie();
  if (resp.status != want_status) {
    return uclust::common::Status::Internal(
        method + " " + target + " -> " + std::to_string(resp.status));
  }
  return uclust::common::ParseJson(resp.body);
}

/// A started service with both datasets registered.
struct Service {
  std::unique_ptr<svc::ClusteringService> service;
  std::string centroid_id, pairwise_id;
};

uclust::common::Status StartService(const std::string& centroid_path,
                                    const std::string& pairwise_path,
                                    Service* out) {
  svc::ServiceConfig cfg;
  cfg.http.port = 0;
  cfg.http.worker_threads = kServiceHttpWorkers;
  cfg.jobs.executors = kServiceExecutors;
  out->service = std::make_unique<svc::ClusteringService>(std::move(cfg));
  UCLUST_RETURN_NOT_OK(out->service->Start());
  for (auto [path, id] : {std::pair{&centroid_path, &out->centroid_id},
                          std::pair{&pairwise_path, &out->pairwise_id}}) {
    uclust::common::JsonWriter w;
    w.BeginObject();
    w.KV("path", *path);
    w.EndObject();
    auto reg = FetchJson(out->service->port(), "POST", "/v1/datasets",
                         w.str(), 201);
    if (!reg.ok()) return reg.status();
    const uclust::common::JsonValue* v = reg.ValueOrDie().Find("id");
    if (v == nullptr) return uclust::common::Status::Internal("no dataset id");
    *id = v->AsString();
  }
  return uclust::common::Status::Ok();
}

/// Stops the service once its HTTP worker is idle again. HttpServer::Stop
/// clears its running flag and notifies the workers without holding their
/// mutex, so a worker that has checked the flag but not yet blocked misses
/// the wake-up and Stop never returns. Right after a response the worker is
/// in that window; one stop in about 500 hung there. 20 ms lets it block.
void StopService(Service* s) {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  s->service->Stop();
}

/// Drives `lanes` closed-loop clients from the calling thread: each lane
/// submits its next job as soon as its previous result has arrived, and
/// polls its job's status every kPollStep. The median of the probe slices
/// run while a job is out scales its wall time.
void DriveClients(const Service& s, const std::vector<ServiceSpec>& specs,
                  const std::vector<std::vector<std::size_t>>& lanes,
                  const std::vector<bool>& traced_by_lane_job,
                  SpeedProbe* probe, Tracer* tracer,
                  std::vector<ServiceJob>* jobs) {
  const int port = s.service->port();
  struct Lane {
    std::size_t next = 0;
    bool busy = false;
    std::string id;
    Clock::time_point t0;
    ServiceJob job;
  };
  std::vector<Lane> state(lanes.size());
  Clock::time_point last_slice = Clock::now() - kSliceEvery;
  double last_slice_s = 0.0;
  std::size_t done = 0, total = 0, lane_offset = 0;
  std::vector<std::size_t> offsets;
  for (const auto& l : lanes) {
    offsets.push_back(lane_offset);
    lane_offset += l.size();
    total += l.size();
  }
  while (done < total) {
    for (std::size_t c = 0; c < lanes.size(); ++c) {
      Lane& lane = state[c];
      if (!lane.busy) {
        if (lane.next >= lanes[c].size()) continue;
        const std::size_t job_index = offsets[c] + lane.next;
        lane.job = ServiceJob();
        lane.job.spec = lanes[c][lane.next];
        lane.job.traced = traced_by_lane_job[job_index];
        tracer->set_recording(lane.job.traced);
        const ServiceSpec& spec = specs[lane.job.spec];
        lane.t0 = Clock::now();
        Tracer::Span span(tracer, "service.submit", static_cast<int>(job_index));
        auto sub = FetchJson(port, "POST", "/v1/jobs",
                             SpecJson(spec, spec.ckmeans ? s.centroid_id
                                                         : s.pairwise_id),
                             202);
        lane.job.submit_s = Since(lane.t0);
        const uclust::common::JsonValue* id =
            sub.ok() ? sub.ValueOrDie().Find("job_id") : nullptr;
        if (id == nullptr) {
          lane.job.error = sub.ok() ? "no job id" : sub.status().ToString();
          jobs->push_back(std::move(lane.job));
          ++lane.next;
          ++done;
          continue;
        }
        lane.id = id->AsString();
        lane.busy = true;
        continue;
      }
      const int job_index = static_cast<int>(offsets[c] + lane.next);
      tracer->set_recording(lane.job.traced);
      ++lane.job.polls;
      uclust::common::Result<uclust::common::JsonValue> st =
          [&] {
            Tracer::Span span(tracer, "service.poll", job_index);
            return FetchJson(port, "GET", "/v1/jobs/" + lane.id, "", 200);
          }();
      std::string state_name = "failed";
      if (st.ok() && st.ValueOrDie().Find("state") != nullptr) {
        state_name = st.ValueOrDie().Find("state")->AsString();
      }
      if (state_name == "queued" || state_name == "running") continue;
      if (state_name == "done") {
        const uclust::common::JsonValue& v = st.ValueOrDie();
        lane.job.queued_ms = v.Find("queued_ms")->AsDouble();
        lane.job.started_ms = v.Find("started_ms")->AsDouble();
        lane.job.finished_ms = v.Find("finished_ms")->AsDouble();
        const Clock::time_point f0 = Clock::now();
        Tracer::Span span(tracer, "service.result_fetch", job_index);
        auto resp = svc::HttpFetch(port, "GET", "/v1/jobs/" + lane.id + "/result");
        lane.job.e2e_s = Since(lane.t0);
        lane.job.fetch_s = Since(f0);
        if (resp.ok() && resp.ValueOrDie().status == 200) {
          lane.job.ok = true;
          lane.job.body = std::move(resp).ValueOrDie().body;
        } else {
          lane.job.error = "result fetch failed";
        }
      } else {
        lane.job.error = "job ended as " + state_name;
      }
      // A job that ended between two slices takes the latest one.
      if (lane.job.slices.empty()) lane.job.slices.push_back(last_slice_s);
      jobs->push_back(std::move(lane.job));
      lane.busy = false;
      ++lane.next;
      ++done;
    }
    if (Clock::now() - last_slice >= kSliceEvery) {
      last_slice = Clock::now();
      last_slice_s = probe->Slice();
      for (Lane& lane : state) {
        if (lane.busy) lane.job.slices.push_back(last_slice_s);
      }
    } else {
      std::this_thread::sleep_for(kPollStep);
    }
  }
  tracer->set_recording(true);
}

/// What the checks and per-layer metrics read from a result body.
struct ParsedResult {
  std::string fingerprint;
  std::vector<int> labels;
  clu::ClusteringResult counters;  // numeric fields only; labels left empty
};

bool ParseResult(const std::string& body, ParsedResult* out) {
  auto parsed = uclust::common::ParseJson(body);
  if (!parsed.ok()) return false;
  const uclust::common::JsonValue* r = parsed.ValueOrDie().Find("result");
  if (r == nullptr || r->Find("fingerprint") == nullptr ||
      r->Find("labels") == nullptr) {
    return false;
  }
  out->fingerprint = r->Find("fingerprint")->AsString();
  for (const auto& v : r->Find("labels")->items()) {
    out->labels.push_back(static_cast<int>(v.AsInt()));
  }
  auto num = [r](const char* key) {
    const uclust::common::JsonValue* v = r->Find(key);
    return v == nullptr ? 0.0 : v->AsDouble();
  };
  auto count = [&num](const char* key) {
    return static_cast<int64_t>(num(key));
  };
  clu::ClusteringResult& c = out->counters;
  c.iterations = static_cast<int>(count("iterations"));
  c.online_ms = num("online_ms");
  c.center_distance_evals = count("center_distance_evals");
  c.bounds_skipped = count("bounds_skipped");
  c.pair_evaluations = count("pair_evaluations");
  c.table_bytes_peak = static_cast<std::size_t>(count("table_bytes_peak"));
  c.tile_warm_hits = count("tile_warm_hits");
  c.tile_warm_misses = count("tile_warm_misses");
  c.pairs_pruned = count("pairs_pruned");
  c.index_candidates = count("index_candidates");
  c.index_bound_tests = count("index_bound_tests");
  c.pairs_pruned_by_index = count("pairs_pruned_by_index");
  return true;
}

/// The direct in-process run of a service spec: the bit-identity
/// reference for the service's answer.
std::string DirectFingerprint(const ServiceSpec& spec,
                              const std::string& centroid_path,
                              const std::string& pairwise_path) {
  const Engine eng(Config(1, 0));
  clu::ClusteringResult r;
  if (spec.ckmeans) {
    clu::CkMeans::Params params;
    params.max_iters = svc::JobSpec().max_iters;
    auto res = clu::CkMeans::ClusterFile(centroid_path, kCentroidK, spec.seed,
                                         params, eng);
    if (!res.ok()) return "error: " + res.status().ToString();
    r = std::move(res).ValueOrDie();
  } else {
    auto ds = io::ReadUncertainDataset(pairwise_path);
    if (!ds.ok()) return "error: " + ds.status().ToString();
    auto algo = clu::MakeClusterer("UK-medoids", eng);
    if (!algo.ok()) return "error: " + algo.status().ToString();
    r = algo.ValueOrDie()->Cluster(ds.ValueOrDie(), kPairwiseK, spec.seed);
  }
  return clu::FingerprintHex(clu::ResultFingerprint(r.labels, r.objective));
}

std::vector<int> ReadReference(const std::string& path) {
  io::BinaryDatasetReader reader;
  std::vector<int> labels;
  if (!reader.Open(path).ok() || !reader.ReadLabels(&labels).ok()) labels.clear();
  return labels;
}

}  // namespace

RunOutcome RunServiceMix(const RunOptions& opt, Tracer* tracer) {
  RunOutcome out;
  const std::string centroid = DatasetPath(opt.data_dir, kCentroidShape);
  const std::string pairwise = DatasetPath(opt.data_dir, kPairwiseShape);
  DeleteSidecars(opt.data_dir);
  const std::vector<int> centroid_ref = ReadReference(centroid);
  const std::vector<int> pairwise_ref = ReadReference(pairwise);
  if (centroid_ref.empty() || pairwise_ref.empty()) {
    out.Fail("could not read the reference classes");
    return out;
  }

  // Set-up: service start plus registration of both datasets over HTTP.
  SpeedProbe probe;
  std::vector<double> setup;
  Service s;
  for (int r = 0; r < kCheapSetupRepeats; ++r) {
    if (s.service) StopService(&s);
    s = Service();
    const double slice = probe.Calibrate();
    Tracer::Span span(tracer, "setup", -1);
    const Clock::time_point t0 = Clock::now();
    const uclust::common::Status st = StartService(centroid, pairwise, &s);
    setup.push_back(SpeedProbe::Scale(Since(t0), slice));
    if (!st.ok()) {
      out.Fail("set-up: " + st.ToString());
      return out;
    }
  }

  // The job mix: each client cycles CK-means x3, UK-medoids x1. Seeds come
  // from two fixed lists, so every spec repeats within a run.
  constexpr int kCkSeeds = 32, kUkmSeeds = 4;
  std::vector<ServiceSpec> specs;
  for (int i = 0; i < kCkSeeds; ++i) {
    specs.push_back({true, MixSeed(opt.seed, 3000 + i) % 1000003});
  }
  for (int i = 0; i < kUkmSeeds; ++i) {
    specs.push_back({false, MixSeed(opt.seed, 4000 + i) % 1000003});
  }
  const int cycles = std::max(
      2, static_cast<int>(std::lround(opt.seconds / kServiceCycleS)));
  std::vector<std::vector<std::size_t>> lanes(kServiceClients);
  std::vector<bool> traced;
  int ck = 0, ukm = 0;
  for (int c = 0; c < kServiceClients; ++c) {
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (int slot = 0; slot < 4; ++slot) {
        const std::size_t spec =
            slot < 3 ? static_cast<std::size_t>(ck++ % kCkSeeds)
                     : static_cast<std::size_t>(kCkSeeds + ukm++ % kUkmSeeds);
        lanes[c].push_back(spec);
        // Whole cycles alternate, so both halves have the same job mix.
        traced.push_back(opt.trace && cycle % 2 == 1);
      }
    }
  }

  // Warm-up: the first cycle of each client, untimed.
  std::vector<ServiceJob> warm;
  tracer->set_recording(false);
  std::vector<std::vector<std::size_t>> warm_lanes;
  for (const std::vector<std::size_t>& lane : lanes) {
    warm_lanes.emplace_back(lane.begin(), lane.begin() + 4);
  }
  DriveClients(s, specs, warm_lanes, std::vector<bool>(8, false), &probe,
               tracer, &warm);
  for (const ServiceJob& w : warm) {
    if (!w.ok) out.Fail("warm-up job: " + w.error);
  }

  std::vector<ServiceJob> jobs;
  DriveClients(s, specs, lanes, traced, &probe, tracer, &jobs);
  const double peak_rss_mb = PeakRssMb(probe);
  StopService(&s);

  // Checks: every result parses, agrees with the direct run of its spec,
  // and repeats of a spec agree with each other.
  std::vector<std::string> direct(specs.size());
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kServiceExecutors; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t i = w; i < specs.size(); i += kServiceExecutors) {
          direct[i] = DirectFingerprint(specs[i], centroid, pairwise);
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  if (opt.inject_fault) direct[0] += "-injected";

  std::vector<JobResult> results;
  std::vector<double> submit, queue_wait, run, fetch, overhead, bytes, polls;
  std::vector<double> ck_online, ck_iters, ck_evals;
  double evals = 0, skipped = 0;
  std::map<std::string, PairwiseCounts> ukm_counts;
  for (ServiceJob& j : jobs) {
    ++out.attempted;
    JobResult r;
    r.seed_index = j.spec;
    r.traced = j.traced;
    r.wall_s = j.e2e_s;
    r.job_s = SpeedProbe::Scale(j.e2e_s, Median(j.slices));
    ParsedResult res;
    if (j.ok && ParseResult(j.body, &res)) {
      const bool is_ck = specs[j.spec].ckmeans;
      const std::vector<int>& ref = is_ck ? centroid_ref : pairwise_ref;
      if (res.fingerprint != direct[j.spec]) {
        j.error = "fingerprint " + res.fingerprint +
                  " differs from the direct run's " + direct[j.spec];
      } else if (res.labels.size() != ref.size()) {
        j.error = "wrong label count";
      } else {
        r.ok = true;
        r.fingerprint = std::stoull(res.fingerprint, nullptr, 16);
        r.f_values.push_back(FMeasureOf(ref, res.labels));
        const clu::ClusteringResult& c = res.counters;
        if (is_ck) {
          ck_online.push_back(c.online_ms / 1000.0);
          ck_iters.push_back(c.iterations);
          ck_evals.push_back(static_cast<double>(c.center_distance_evals));
          evals += static_cast<double>(c.center_distance_evals);
          skipped += static_cast<double>(c.bounds_skipped);
        } else {
          ukm_counts["ukmedoids"].Add(c);
        }
      }
    } else if (j.error.empty()) {
      j.error = "result body lacks a fingerprint or labels";
    }
    if (!r.ok) {
      ++out.failed;
      out.Fail("service job: " + j.error);
    } else {
      submit.push_back(j.submit_s);
      queue_wait.push_back((j.started_ms - j.queued_ms) / 1000.0);
      run.push_back((j.finished_ms - j.started_ms) / 1000.0);
      fetch.push_back(j.fetch_s);
      overhead.push_back(j.e2e_s - (j.finished_ms - j.started_ms) / 1000.0);
      bytes.push_back(static_cast<double>(j.body.size()));
      polls.push_back(j.polls);
    }
    results.push_back(std::move(r));
  }
  CheckRepeats(results, false, &out);
  ReportJobs(results, kServiceClients, Median(setup),
             peak_rss_mb, probe, opt, &out);

  std::vector<double> walls;
  for (const JobResult& r : results) walls.push_back(r.wall_s);
  out.Env("engine_threads", 1.0);
  out.Env("executors", kServiceExecutors);
  out.Env("clients", kServiceClients);
  out.Env("http_workers", static_cast<double>(kServiceHttpWorkers));
  out.Env("client_threads", 1.0);
  const double poll_step_s =
      std::chrono::duration<double>(kPollStep).count();
  out.Env("poll_step_s", poll_step_s);
  out.Env("poll_step_frac_of_job_p50", Ratio(poll_step_s, Median(walls)));
  out.Env("datasets", "[" + ShapeJson(kCentroidShape, kCentroidK) + ", " +
                          ShapeJson(kPairwiseShape, kPairwiseK) + "]");
  out.Env("timed_jobs", static_cast<double>(jobs.size()));
  out.Env("ckmeans_jobs", static_cast<double>(ck));
  out.Env("ukmedoids_jobs", static_cast<double>(ukm));
  out.Env("distinct_specs", static_cast<double>(specs.size()));

  if (opt.trace) {
    out.Layer("service.submit_s", Median(submit), "s");
    out.Layer("service.queue_wait_s", Median(queue_wait), "s");
    out.Layer("service.run_s", Median(run), "s");
    out.Layer("service.result_fetch_s", Median(fetch), "s");
    out.Layer("service.result_bytes", Mean(bytes), "bytes");
    out.Layer("service.polls_per_job", Mean(polls), "count");
    out.Layer("service.overhead_s", Median(overhead), "s");
    out.Layer("ckmeans.run_s", Median(ck_online), "s");
    out.Layer("ckmeans.iterations", Mean(ck_iters), "count");
    out.Layer("ckmeans.center_distance_evals", Mean(ck_evals), "count");
    out.Layer("ckmeans.skip_ratio", Ratio(skipped, evals + skipped), "ratio");
    ReportPairwiseLayers(ukm_counts, static_cast<double>(ukm), kPairwiseShape.n,
                         &out);

    // Standalone probes of what the service runner does per UK-medoids
    // job: reload the .ubin and draw resident samples (median of 5).
    std::vector<double> read_s, draw_s;
    std::size_t draw_bytes = 0;
    const Engine serial(Config(1, 0));
    for (int r = 0; r < 5; ++r) {
      Tracer::Span span(tracer, "io.read_dataset", -1);
      Clock::time_point t0 = Clock::now();
      auto ds = io::ReadUncertainDataset(pairwise);
      read_s.push_back(Since(t0));
      if (!ds.ok()) {
        out.Fail(ds.status().ToString());
        break;
      }
      Tracer::Span draw_span(tracer, "sample_store.draw", -1);
      t0 = Clock::now();
      auto store = io::MakeSampleStore(ds.ValueOrDie(),
                                       clu::UkMedoids::Params().samples,
                                       clu::UkMedoids::Params().sample_seed,
                                       serial);
      draw_s.push_back(Since(t0));
      if (store.ok()) draw_bytes = store.ValueOrDie()->sample_bytes_resident();
      if (r == 0) {
        out.Layer("spatial_index.build_s", SpatialIndexBuildSeconds(ds.ValueOrDie()),
                  "s");
      }
    }
    out.Layer("io.read_dataset_s", Median(read_s), "s");
    out.Layer("sample_store.draw_s", Median(draw_s), "s");
    out.Layer("sample_store.bytes_resident_peak", static_cast<double>(draw_bytes),
              "bytes");
    out.Layer("simd.ed2_evals_per_s", Ed2EvalsPerSecond(kCentroidShape.m, opt.seed),
              "1/s");
  }
  return out;
}

}  // namespace perfbench
