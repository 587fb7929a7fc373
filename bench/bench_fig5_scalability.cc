// Reproduces Figure 5: scalability on the KDD-Cup-'99-like dataset. The
// dataset size is swept from 5% to 100% of a base size with k fixed to 23
// (every class covered), and the online runtimes of the fastest algorithms
// (UK-means, MMVar, UCPC) are reported; all three consume only per-object
// moment statistics, so the sweep streams moments directly.
//
// Besides the paper's table, the bench measures the serial-vs-parallel
// speedup of the execution engine at the 100% size, sweeps the
// PairwiseStore budget axis (dense, tiled, one-row tiled ED^ tables) on an
// object-backed UK-medoids workload with peak-RSS and peak-table-memory
// accounting, sweeps the FDBSCAN spatial-index axis (the sweep the
// selectivity probe picks, then the forced R-tree and all-pairs sweeps, with
// pruned-pair and bound-test counters) on a mix-family dataset, records
// the CK-means axis (UK-means assignment work with distance-eval and
// bounds-skip accounting), sweeps the
// MomentStore backend axis (resident columns vs the mmap-backed .umom
// sidecar) on the fast group with moments-bytes-resident accounting, and
// persists everything to a machine-readable BENCH_fig5_scalability.json
// (see --json_out).
//
// Flags:
//   --dataset=PATH    file-backed mode: sweep prefixes of a binary dataset
//                     (see src/io/) decoded straight into moments instead
//                     of the synthetic KDD generator; k is taken from the
//                     file's class count (default: generate synthetically)
//   --base_n=N        100% dataset size          (default 100000)
//   --runs=N          timed repetitions per cell (default 1)
//   --threads=N       engine threads for the sweep; 0 = hardware (default 1)
//   --block_size=B    engine block size          (default 1024)
//   --speedup_threads=N  thread count of the speedup probe; 0 = hardware
//                        (default 0)
//   --json_out=PATH   JSON output path (default BENCH_fig5_scalability.json)
//   --with_pruning    also time bUKM/MinMax-BB/VDBiP (object-backed; the
//                     base size is then capped at --pruning_cap)
//   --pruning_cap=N   cap for the pruning sweep  (default 8000)
//   --pairwise_n=N    size of the backend/spatial-index axis sweeps
//                     (default 1500; 0 skips them)
//   --pairwise_budget_mb=M  tiled-backend budget   (default 4)
//   --simd_isa=I      force the process-wide SIMD path: auto, scalar or
//                     avx2 (default auto); results never change, so the
//                     fingerprint below must match across paths
//   --seed=S          master seed                (default 1)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "bench_util.h"
#include "clustering/basic_ukmeans.h"
#include "clustering/ckmeans.h"
#include "clustering/fdbscan.h"
#include "clustering/mmvar.h"
#include "clustering/simd/simd.h"
#include "clustering/ucpc.h"
#include "clustering/ukmedoids.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/benchmark_gen.h"
#include "data/kdd_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "io/ingest.h"
#include "io/moment_file.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"

namespace {
using namespace uclust;  // NOLINT: bench brevity

struct Timing {
  double ms = 0.0;
  int iterations = 0;
  /// Local search only: object-passes screened, those the relocation
  /// screen decided on a carried bound without the gain kernel, and those
  /// the gain kernel's vector stay test decided.
  int64_t screened = 0, screen_skips = 0, vector_stays = 0;

  void AddLocalSearch(const clustering::LocalSearchOutcome& out,
                      std::size_t n) {
    iterations = out.passes;
    screened += (out.passes + (out.converged ? 1 : 0)) *
                static_cast<int64_t>(n);
    screen_skips += out.screen_skips;
    vector_stays += out.vector_stays;
  }
  double PerScreened(int64_t count) const {
    return screened > 0
               ? static_cast<double>(count) / static_cast<double>(screened)
               : 0.0;
  }
  double skip_ratio() const { return PerScreened(screen_skips); }
  double stay_ratio() const { return PerScreened(vector_stays); }
};

using bench::PeakRssKb;

// Average online time of each moment-kernel algorithm over `runs`.
void TimeFastGroup(const uncertain::MomentView& mm, int k, int runs,
                   uint64_t seed, const engine::Engine& eng, Timing* ukm,
                   Timing* mmv, Timing* ucpc) {
  for (int r = 0; r < runs; ++r) {
    common::Stopwatch sw;
    ukm->iterations = clustering::CkMeans::RunOnMoments(
                          mm, k, seed + r, clustering::CkMeans::Params(), eng)
                          .iterations;
    ukm->ms += sw.ElapsedMs();
    sw.Reset();
    const clustering::LocalSearchOutcome mmv_out =
        clustering::Mmvar::RunOnMoments(mm, k, seed + r,
                                        clustering::Mmvar::Params(), eng);
    mmv->ms += sw.ElapsedMs();
    mmv->AddLocalSearch(mmv_out, mm.size());
    sw.Reset();
    const clustering::LocalSearchOutcome ucpc_out =
        clustering::Ucpc::RunOnMoments(mm, k, seed + r,
                                       clustering::Ucpc::Params(), eng);
    ucpc->ms += sw.ElapsedMs();
    ucpc->AddLocalSearch(ucpc_out, mm.size());
  }
  ukm->ms /= runs;
  mmv->ms /= runs;
  ucpc->ms /= runs;
}

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::size_t base_n =
      static_cast<std::size_t>(args.GetInt("base_n", 50000));
  const int runs = static_cast<int>(args.GetInt("runs", 1));
  const bool with_pruning = args.GetBool("with_pruning", false);
  const std::size_t pruning_cap =
      static_cast<std::size_t>(args.GetInt("pruning_cap", 8000));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string json_out =
      args.GetString("json_out", "BENCH_fig5_scalability.json");
  const std::string dataset_path = args.GetString("dataset", "");
  int k = 23;

  // The SIMD path is process-wide: force it before any Engine runs a kernel.
  const std::string isa_name = args.GetString("simd_isa", "auto");
  clustering::simd::Isa isa = clustering::simd::Isa::kAuto;
  if (!clustering::simd::IsaFromString(isa_name, &isa) ||
      !clustering::simd::ForceIsa(isa)) {
    std::fprintf(stderr,
                 "fig5 scalability: --simd_isa: expected auto, scalar, or "
                 "avx2 available on this cpu, got '%s'\n",
                 isa_name.c_str());
    return 1;
  }

  const engine::EngineConfig engine_config =
      bench::EngineConfigFromFlagsOrDie(args, "fig5 scalability");
  const engine::Engine eng(engine_config);
  engine::EngineConfig speedup_config = engine_config;
  speedup_config.num_threads =
      static_cast<int>(args.GetInt("speedup_threads", 0));
  const engine::Engine speedup_eng(speedup_config);
  const engine::Engine serial_eng;

  // File-backed mode: stream the file's moments once through the bounded-
  // memory ingestion path; the fraction sweep below then slices row
  // prefixes of the streamed matrix.
  uncertain::MomentMatrix file_mm;
  std::size_t sweep_dims = 42;
  if (!dataset_path.empty()) {
    std::vector<int> file_labels;
    auto streamed = io::StreamMomentsFromFile(
        dataset_path, io::kDefaultIngestBatch, &file_labels);
    if (!streamed.ok()) {
      std::fprintf(stderr, "fig5: %s\n", streamed.status().ToString().c_str());
      return 1;
    }
    file_mm = std::move(streamed).ValueOrDie();
    sweep_dims = file_mm.dims();
    int max_label = -1;
    for (int label : file_labels) max_label = std::max(max_label, label);
    if (max_label >= 1) k = max_label + 1;
    // Unlabeled / single-class / tiny files: keep k within [2, n] (the
    // moment kernels require n >= k, enforced by assert only).
    k = std::max(2, std::min<int>(k, static_cast<int>(file_mm.size())));
    if (file_mm.size() < 2) {
      std::fprintf(stderr, "fig5: dataset %s has fewer than 2 objects\n",
                   dataset_path.c_str());
      return 1;
    }
    std::printf("[file-backed: %s, n=%zu m=%zu k=%d]\n", dataset_path.c_str(),
                file_mm.size(), file_mm.dims(), k);
  }

  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;

  const double fractions[] = {0.05, 0.10, 0.25, 0.50, 0.75, 1.00};

  common::JsonWriter json;
  json.BeginObject();
  json.KV("bench", "fig5_scalability");
  json.Key("config");
  json.BeginObject();
  json.KV("base_n", dataset_path.empty() ? base_n : file_mm.size());
  json.KV("dataset", dataset_path);
  json.KV("runs", runs);
  json.KV("seed", static_cast<int64_t>(seed));
  json.KV("k", k);
  json.KV("m", sweep_dims);
  json.KV("threads", eng.num_threads());
  json.KV("block_size", eng.block_size());
  json.KV("hardware_threads", static_cast<int64_t>(bench::HardwareThreads()));
  json.KV("simd_isa",
          clustering::simd::IsaName(clustering::simd::ActiveIsa()));
  json.EndObject();

  std::printf("=== Figure 5: scalability on the %s dataset "
              "(base n=%zu, m=%zu, k=%d, runs=%d, threads=%d) ===\n\n",
              dataset_path.empty() ? "KDD-like" : "file-backed",
              dataset_path.empty() ? base_n : file_mm.size(), sweep_dims, k,
              runs, eng.num_threads());
  std::printf("%8s %10s | %18s %40s %40s\n", "fraction", "n", "UK-means",
              "MMVar", "UCPC");
  json.Key("results");
  json.BeginArray();
  uncertain::MomentMatrix largest_mm;
  for (double frac : fractions) {
    uncertain::MomentMatrix mm;
    if (!dataset_path.empty()) {
      if (frac == 1.00) {
        // The 100% cell is the whole file; moving (the loop's last use of
        // file_mm) avoids doubling the O(n m) moment columns.
        mm = std::move(file_mm);
      } else {
        // Row prefix of the streamed file moments.
        const std::size_t want = std::max<std::size_t>(
            static_cast<std::size_t>(k),
            static_cast<std::size_t>(static_cast<double>(file_mm.size()) *
                                     frac));
        const std::size_t prefix_n = std::min(want, file_mm.size());
        uncertain::MomentMatrix prefix(prefix_n, file_mm.dims());
        for (std::size_t i = 0; i < prefix_n; ++i) {
          prefix.AppendRow(file_mm.mean(i), file_mm.second_moment(i),
                           file_mm.variance(i));
        }
        mm = std::move(prefix);
      }
    } else {
      data::KddLikeParams params;
      params.n = std::max<std::size_t>(
          static_cast<std::size_t>(k),
          static_cast<std::size_t>(static_cast<double>(base_n) * frac));
      std::vector<int> labels;
      mm = data::MakeKddLikeMoments(params, up, seed, &labels);
    }

    Timing ukm, mmv, ucpc;
    TimeFastGroup(mm, k, runs, seed, eng, &ukm, &mmv, &ucpc);
    std::printf(
        "%7.0f%% %10zu | %8.1fms (I=%3d) %8.1fms (I=%3d skip=%.3f "
        "stay=%.3f) %8.1fms (I=%3d skip=%.3f stay=%.3f)\n",
        frac * 100.0, mm.size(), ukm.ms, ukm.iterations, mmv.ms,
        mmv.iterations, mmv.skip_ratio(), mmv.stay_ratio(), ucpc.ms,
        ucpc.iterations, ucpc.skip_ratio(), ucpc.stay_ratio());
    json.BeginObject();
    json.KV("fraction", frac);
    json.KV("n", mm.size());
    json.Key("online_ms");
    json.BeginObject();
    json.KV("UK-means", ukm.ms);
    json.KV("MMVar", mmv.ms);
    json.KV("UCPC", ucpc.ms);
    json.EndObject();
    json.Key("iterations");
    json.BeginObject();
    json.KV("UK-means", ukm.iterations);
    json.KV("MMVar", mmv.iterations);
    json.KV("UCPC", ucpc.iterations);
    json.EndObject();
    json.Key("screen_skip_ratio");
    json.BeginObject();
    json.KV("MMVar", mmv.skip_ratio());
    json.KV("UCPC", ucpc.skip_ratio());
    json.EndObject();
    json.Key("vector_stay_ratio");
    json.BeginObject();
    json.KV("MMVar", mmv.stay_ratio());
    json.KV("UCPC", ucpc.stay_ratio());
    json.EndObject();
    json.EndObject();
    if (frac == 1.00) largest_mm = std::move(mm);
  }
  json.EndArray();

  // Timing-free results fingerprint of the 100% UK-means run (labels +
  // objective bits only): two invocations that cluster identically print
  // the same value no matter how fast they ran. CI diffs this line between
  // --simd_isa=scalar and auto dispatch to pin the bit-exactness contract
  // end to end on real hardware.
  {
    const auto fp_run = clustering::CkMeans::RunOnMoments(
        largest_mm.view(), k, seed, clustering::CkMeans::Params(), eng);
    const uint64_t fp = bench::ResultFingerprint(fp_run.labels,
                                                 fp_run.objective);
    std::printf("\nFIG5 ISA=%s\nFIG5 FINGERPRINT=%016llx\n",
                clustering::simd::IsaName(clustering::simd::ActiveIsa())
                    .c_str(),
                static_cast<unsigned long long>(fp));
    json.KV("result_fingerprint", clustering::FingerprintHex(fp));
    // The same run in the one canonical ClusteringResult serialization the
    // service's GET /v1/jobs/{id}/result route emits, so an archived fig5
    // artifact and a service response are directly diffable (the field
    // order and the embedded fingerprint are pinned by
    // tests/golden/clustering_result.json).
    clustering::ClusteringResult canonical;
    canonical.labels = fp_run.labels;
    canonical.k_requested = k;
    canonical.clusters_found = clustering::CountClusters(fp_run.labels);
    canonical.iterations = fp_run.iterations;
    canonical.objective = fp_run.objective;
    canonical.center_distance_evals = fp_run.center_distance_evals;
    canonical.bounds_skipped = fp_run.bounds_skipped;
    json.Key("result");
    clustering::AppendResultJson(&json, canonical, /*include_labels=*/false);
  }

  // Serial vs parallel on the 100% dataset: the engine's speedup entry that
  // tracks the perf trajectory across PRs.
  std::printf("\n[engine speedup at n=%zu: 1 thread vs %d threads]\n",
              largest_mm.size(), speedup_eng.num_threads());
  std::printf("%12s | %12s %12s %10s\n", "algorithm", "serial", "parallel",
              "speedup");
  json.Key("speedup");
  json.BeginArray();
  {
    Timing s_ukm, s_mmv, s_ucpc;
    TimeFastGroup(largest_mm, k, runs, seed, serial_eng, &s_ukm, &s_mmv,
                  &s_ucpc);
    Timing p_ukm, p_mmv, p_ucpc;
    TimeFastGroup(largest_mm, k, runs, seed, speedup_eng, &p_ukm, &p_mmv,
                  &p_ucpc);
    const struct {
      const char* name;
      const Timing* serial;
      const Timing* parallel;
    } rows[] = {{"UK-means", &s_ukm, &p_ukm},
                {"MMVar", &s_mmv, &p_mmv},
                {"UCPC", &s_ucpc, &p_ucpc}};
    for (const auto& row : rows) {
      const double speedup =
          row.parallel->ms > 0.0 ? row.serial->ms / row.parallel->ms : 0.0;
      std::printf("%12s | %10.1fms %10.1fms %9.2fx\n", row.name,
                  row.serial->ms, row.parallel->ms, speedup);
      json.BeginObject();
      json.KV("name", row.name);
      json.KV("n", largest_mm.size());
      json.KV("serial_ms", row.serial->ms);
      json.KV("parallel_ms", row.parallel->ms);
      json.KV("threads", speedup_eng.num_threads());
      json.KV("speedup", speedup);
      json.EndObject();
    }
  }
  json.EndArray();

  // CK-means axis: the UK-means assignment work at the 100% size. The
  // Hamerly/Elkan bounds change online time and the (center_distance_evals,
  // bounds_skipped) accounting, never the labels; evals + skipped is the
  // direct sweeps' evaluation count (sweeps * n * k, the accounting
  // identity), so the row carries the direct baseline without running it.
  // This axis records the trajectory; the hard exactness and pruning-win
  // gates live in bench_ckmeans_smoke, which CI greps for CKMEANS RESULT=OK.
  if (largest_mm.size() > 0) {
    std::printf("\n[ckmeans axis: UK-means assignment work at n=%zu, "
                "k=%d]\n",
                largest_mm.size(), k);
    std::printf("%16s | %10s %6s %16s %16s %16s\n", "level", "online",
                "iters", "distance_evals", "bounds_skipped",
                "evals+skipped");
    json.Key("ckmeans_speedup");
    json.BeginArray();
    double ms = 0.0;
    clustering::CkMeans::Outcome out;
    for (int r = 0; r < runs; ++r) {
      common::Stopwatch sw;
      out = clustering::CkMeans::RunOnMoments(
          largest_mm.view(), k, seed, clustering::CkMeans::Params(), eng);
      ms += sw.ElapsedMs();
    }
    ms /= runs;
    const int64_t direct_evals =
        out.center_distance_evals + out.bounds_skipped;
    std::printf("%16s | %8.1fms %6d %16lld %16lld %16lld\n", "ckmeans", ms,
                out.iterations,
                static_cast<long long>(out.center_distance_evals),
                static_cast<long long>(out.bounds_skipped),
                static_cast<long long>(direct_evals));
    json.BeginObject();
    json.KV("level", "ckmeans");
    json.KV("n", largest_mm.size());
    json.KV("k", k);
    json.KV("online_ms", ms);
    json.KV("iterations", out.iterations);
    json.KV("center_distance_evals", out.center_distance_evals);
    json.KV("bounds_skipped", out.bounds_skipped);
    json.KV("direct_evals", direct_evals);
    json.EndObject();
    json.EndArray();
  }

  // MomentStore backend axis: the fast group on resident columns vs the
  // mmap-backed .umom sidecar, at the 100% size. Labels must agree
  // bit-for-bit; what changes is moments_bytes_resident — the bytes of
  // moment storage pinned in memory (full columns vs the peak of the
  // chunk-window cache) — which is the new memory floor this axis tracks.
  // RSS is recorded too, but the resident columns already exist in this
  // process, so moments_bytes_resident is the meaningful memory signal.
  if (largest_mm.size() > 0 && args.GetBool("with_moment_backends", true)) {
    const std::string umom_path = json_out + ".umom";
    const common::Status wst =
        io::WriteMomentFile(largest_mm.view(), umom_path);
    auto mapped_store =
        wst.ok() ? io::MappedMomentStore::Open(umom_path)
                 : common::Result<std::unique_ptr<io::MappedMomentStore>>(wst);
    if (!mapped_store.ok()) {
      std::fprintf(stderr, "fig5: moment backend axis skipped: %s\n",
                   mapped_store.status().ToString().c_str());
    } else {
      const uncertain::ResidentMomentStore resident(std::move(largest_mm));
      const io::MappedMomentStore& mapped = *mapped_store.ValueOrDie();
      std::printf("\n[moment backend axis: fast group at n=%zu, resident "
                  "columns = %.1f MiB, chunk_rows=%zu]\n",
                  resident.size(),
                  static_cast<double>(resident.moment_bytes_resident()) /
                      (1 << 20),
                  mapped.chunk_rows());
      std::printf("%10s | %12s %12s %12s %14s %12s\n", "backend", "UK-means",
                  "MMVar", "UCPC", "moment_bytes", "peak_rss");
      json.Key("moment_backends");
      json.BeginArray();
      // The resident store runs first and its labels become the reference
      // the mapped run is compared against — one labels pass per backend.
      std::vector<int> reference_labels;
      const uncertain::MomentStore* stores[] = {&resident, &mapped};
      for (const uncertain::MomentStore* store : stores) {
        Timing ukm, mmv, ucpc;
        TimeFastGroup(store->view(), k, runs, seed, eng, &ukm, &mmv, &ucpc);
        std::vector<int> labels =
            clustering::CkMeans::RunOnMoments(store->view(), k, seed,
                                              clustering::CkMeans::Params(),
                                              eng)
                .labels;
        if (reference_labels.empty()) reference_labels = std::move(labels);
        const bool labels_match =
            store == &resident || labels == reference_labels;
        const long rss_kb = PeakRssKb();
        std::printf("%10s | %10.1fms %10.1fms %10.1fms %11.2f MiB %9ld KB%s\n",
                    uncertain::MomentBackendName(store->backend()).c_str(),
                    ukm.ms, mmv.ms, ucpc.ms,
                    static_cast<double>(store->moment_bytes_resident()) /
                        (1 << 20),
                    rss_kb, labels_match ? "" : "  LABEL MISMATCH!");
        json.BeginObject();
        json.KV("backend", uncertain::MomentBackendName(store->backend()));
        json.KV("n", store->size());
        json.Key("online_ms");
        json.BeginObject();
        json.KV("UK-means", ukm.ms);
        json.KV("MMVar", mmv.ms);
        json.KV("UCPC", ucpc.ms);
        json.EndObject();
        json.KV("moments_bytes_resident", store->moment_bytes_resident());
        json.KV("peak_rss_kb", static_cast<int64_t>(rss_kb));
        json.KV("labels_match_resident", labels_match);
        json.EndObject();
      }
      json.EndArray();
    }
    std::remove(umom_path.c_str());
  }

  // PairwiseStore backend axis: the same object-backed UK-medoids workload
  // under an unlimited budget (dense table), a tiled budget, and a 1-byte
  // budget (tiled, one-row blocks). Labels must agree bit-for-bit; what changes
  // is peak table memory (recorded from the store), process RSS, and the
  // recompute work (pair evaluations, warm-row hits).
  const std::size_t pairwise_n =
      static_cast<std::size_t>(args.GetInt("pairwise_n", 1500));
  if (pairwise_n > 0) {
    const std::size_t tiled_budget =
        static_cast<std::size_t>(args.GetInt("pairwise_budget_mb", 4))
        << 20;
    data::KddLikeParams kp;
    kp.n = std::max<std::size_t>(pairwise_n, static_cast<std::size_t>(k));
    const auto source = data::MakeKddLikeDataset(kp, seed);
    const auto ds = data::UncertaintyModel(source, up, seed + 1).Uncertain();
    clustering::UkMedoids::Params mp;
    mp.use_closed_form = true;
    mp.max_iters = 4;  // memory probe, not a convergence study

    std::printf("\n[pairwise backend axis: UK-medoids (closed form) at "
                "n=%zu, dense table = %.1f MiB, tiled budget = %zu MiB]\n",
                ds.size(),
                static_cast<double>(ds.size()) * ds.size() *
                    sizeof(double) / (1 << 20),
                tiled_budget >> 20);
    std::printf("%10s %14s | %10s %10s %14s %10s %14s %12s\n", "backend",
                "budget", "offline", "online", "pair_evals", "warm_hits",
                "table_peak", "peak_rss");
    json.Key("pairwise_backends");
    json.BeginArray();
    // Ascending-memory order with dense LAST: ru_maxrss is a monotone
    // lifetime high-water mark, so each row's RSS reading is meaningful
    // only if no heavier run preceded it.
    const std::size_t budgets[] = {1, tiled_budget, 0};
    struct BackendRun {
      std::size_t budget = 0;
      long rss_kb = 0;
      clustering::ClusteringResult r;
    };
    std::vector<BackendRun> runs_out;
    for (const std::size_t budget : budgets) {
      engine::EngineConfig bc = engine_config;
      bc.memory_budget_bytes = budget;
      clustering::UkMedoids algo(mp);
      algo.set_engine(engine::Engine(bc));
      BackendRun run;
      run.budget = budget;
      run.r = algo.Cluster(ds, k, seed);
      run.rss_kb = PeakRssKb();
      runs_out.push_back(std::move(run));
    }
    const std::vector<int>& dense_labels = runs_out.back().r.labels;
    for (const BackendRun& run : runs_out) {
      const bool labels_match = run.r.labels == dense_labels;
      std::printf("%10s %14zu | %8.1fms %8.1fms %14lld %10lld %11.2f MiB "
                  "%9ld KB%s\n",
                  run.r.pairwise_backend.c_str(), run.budget,
                  run.r.offline_ms, run.r.online_ms,
                  static_cast<long long>(run.r.pair_evaluations),
                  static_cast<long long>(run.r.tile_warm_hits),
                  static_cast<double>(run.r.table_bytes_peak) / (1 << 20),
                  run.rss_kb, labels_match ? "" : "  LABEL MISMATCH!");
      json.BeginObject();
      json.KV("backend", run.r.pairwise_backend);
      json.KV("memory_budget_bytes", run.budget);
      json.KV("n", ds.size());
      json.KV("offline_ms", run.r.offline_ms);
      json.KV("online_ms", run.r.online_ms);
      json.KV("iterations", run.r.iterations);
      json.KV("pair_evaluations", run.r.pair_evaluations);
      json.KV("tile_warm_hits", run.r.tile_warm_hits);
      json.KV("tile_warm_misses", run.r.tile_warm_misses);
      json.KV("table_bytes_peak", run.r.table_bytes_peak);
      json.KV("peak_rss_kb", static_cast<int64_t>(run.rss_kb));
      json.KV("labels_match_dense", labels_match);
      json.EndObject();
    }
    json.EndArray();

    // FDBSCAN on a mix-family dataset: per-dimension pdfs cycle uniform /
    // normal / exponential, exercising every bounded-support shape the
    // spatial bounds must cover.
    {
      const data::DeterministicDataset det = data::MakeGaussianMixture(
          [&] {
            data::MixtureParams gp;
            gp.n = std::max<std::size_t>(pairwise_n, 32);
            gp.dims = 3;
            gp.classes = std::min(k, 6);
            gp.min_separation = 0.4;
            return gp;
          }(),
          seed + 5, "fig5-mix");
      common::Rng scale_rng(seed + 6);
      std::vector<uncertain::UncertainObject> mix_objects;
      mix_objects.reserve(det.size());
      constexpr data::PdfFamily kFamilies[] = {data::PdfFamily::kUniform,
                                               data::PdfFamily::kNormal,
                                               data::PdfFamily::kExponential};
      for (std::size_t i = 0; i < det.size(); ++i) {
        std::vector<uncertain::PdfPtr> dims;
        dims.reserve(det.dims());
        for (std::size_t j = 0; j < det.dims(); ++j) {
          const double scale = 0.01 + 0.02 * scale_rng.Uniform();
          dims.push_back(data::MakeUncertainPdf(
              kFamilies[(i + j) % 3], det.points[i][j], scale));
        }
        mix_objects.emplace_back(std::move(dims));
      }
      const data::UncertainDataset mix_ds("fig5-mix", std::move(mix_objects),
                                          det.labels, det.num_classes);
      clustering::Fdbscan::Params fp;
      fp.eps = 0.1;  // below the class separation: cross-class pairs prune
      // Spatial-index axis: the sweep the selectivity probe picks, then both
      // forced sweeps. Every row must reproduce the all-pairs labels and
      // pair counters bit-for-bit; the indexed sweep replaces the
      // n*(n-1)/2 per-pair bound tests with candidate-set queries.
      std::printf("\n[fdbscan spatial-index axis: mix-family dataset, "
                  "n=%zu]\n",
                  mix_ds.size());
      std::printf("%9s | %10s %14s %14s %14s %14s %8s\n", "sweep",
                  "online", "pairs_pruned", "bound_tests", "candidates",
                  "pruned_by_idx", "labels");
      engine::EngineConfig pc = engine_config;
      pc.memory_budget_bytes = tiled_budget;
      clustering::Fdbscan algo(fp);
      algo.set_engine(engine::Engine(pc));
      using Sweep = clustering::Fdbscan::Sweep;
      const clustering::ClusteringResult all_pairs =
          algo.Cluster(mix_ds, k, seed, Sweep::kAllPairs);
      const clustering::ClusteringResult rows[] = {
          algo.Cluster(mix_ds, k, seed),
          algo.Cluster(mix_ds, k, seed, Sweep::kIndexed), all_pairs};
      const char* const names[] = {"probe", "indexed", "all_pairs"};
      json.Key("spatial_index");
      json.BeginArray();
      for (std::size_t row = 0; row < std::size(rows); ++row) {
        const clustering::ClusteringResult& r = rows[row];
        const bool labels_match = r.labels == all_pairs.labels;
        std::printf("%9s | %8.1fms %14lld %14lld %14lld %14lld %8s\n",
                    names[row], r.online_ms,
                    static_cast<long long>(r.pairs_pruned),
                    static_cast<long long>(r.index_bound_tests),
                    static_cast<long long>(r.index_candidates),
                    static_cast<long long>(r.pairs_pruned_by_index),
                    labels_match ? "match" : "MISMATCH!");
        json.BeginObject();
        json.KV("sweep", names[row]);
        json.KV("picked", r.index_bound_tests > 0 ? "indexed" : "all_pairs");
        json.KV("backend", r.pairwise_backend);
        json.KV("n", mix_ds.size());
        json.KV("online_ms", r.online_ms);
        json.KV("pair_evaluations", r.pair_evaluations);
        json.KV("pairs_pruned", r.pairs_pruned);
        json.KV("index_bound_tests", r.index_bound_tests);
        json.KV("index_candidates", r.index_candidates);
        json.KV("pairs_pruned_by_index", r.pairs_pruned_by_index);
        json.KV("labels_match_all_pairs", labels_match);
        json.EndObject();
      }
      json.EndArray();
    }
  }

  if (with_pruning) {
    std::printf("\n[pruning-based variants: object-backed sweep, base "
                "n=%zu]\n",
                pruning_cap);
    std::printf("%8s %10s | %12s %12s %12s\n", "fraction", "n", "bUK-means",
                "MinMax-BB", "VDBiP");
    json.Key("pruning_results");
    json.BeginArray();
    for (double frac : fractions) {
      data::KddLikeParams params;
      params.n = std::max<std::size_t>(
          static_cast<std::size_t>(k),
          static_cast<std::size_t>(static_cast<double>(pruning_cap) * frac));
      const auto source = data::MakeKddLikeDataset(params, seed);
      const auto ds = data::UncertaintyModel(source, up, seed + 1).Uncertain();
      clustering::BasicUkmeans::Params bp;
      clustering::BasicUkmeans plain(bp);
      bp.pruning = clustering::PruningStrategy::kMinMaxBB;
      bp.cluster_shift = true;
      clustering::BasicUkmeans minmax(bp);
      bp.pruning = clustering::PruningStrategy::kVoronoi;
      clustering::BasicUkmeans voronoi(bp);
      plain.set_engine(eng);
      minmax.set_engine(eng);
      voronoi.set_engine(eng);
      double t0 = 0.0, t1 = 0.0, t2 = 0.0;
      for (int r = 0; r < runs; ++r) {
        t0 += plain.Cluster(ds, k, seed + r).online_ms;
        t1 += minmax.Cluster(ds, k, seed + r).online_ms;
        t2 += voronoi.Cluster(ds, k, seed + r).online_ms;
      }
      std::printf("%7.0f%% %10zu | %10.1fms %10.1fms %10.1fms\n",
                  frac * 100.0, ds.size(), t0 / runs, t1 / runs, t2 / runs);
      json.BeginObject();
      json.KV("fraction", frac);
      json.KV("n", ds.size());
      json.Key("online_ms");
      json.BeginObject();
      json.KV("bUK-means", t0 / runs);
      json.KV("MinMax-BB", t1 / runs);
      json.KV("VDBiP", t2 / runs);
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();
  if (json.WriteFile(json_out)) {
    std::printf("\n[wrote %s]\n", json_out.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
  }
  std::printf("\nExpected shape (paper): all curves linear in n; MMVar "
              "scales best; UCPC tracks UK-means closely.\n");
  return 0;
}
