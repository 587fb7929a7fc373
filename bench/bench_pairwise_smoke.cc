// Large-n memory smoke for the PairwiseStore backends: runs UK-medoids
// (closed form) at a size whose dense n x n ED^ table cannot fit the
// process's address-space limit, proving the budgeted backends cluster
// where the dense table would OOM. CI runs this twice under a hard
// `ulimit -v`:
//
//   --memory_budget_bytes=0   -> dense backend, expected to die on the
//                                table allocation;
//   --memory_budget_bytes=64M -> tiled backend, expected to finish and to
//                                keep peak table bytes within the budget.
//
// Every terminal outcome is reported through one machine-readable marker so
// CI can grep for the expected state instead of inspecting bare exit codes
// (an unrelated crash — segfault, assert — emits no marker and therefore
// cannot masquerade as the expected OOM):
//
//   [pairwise smoke] RESULT=OOM   allocation failure (std::bad_alloc)
//   [pairwise smoke] RESULT=OK    clustered within its own budget
//   [pairwise smoke] RESULT=FAIL  clustered but violated budget/shape checks
//
// Budgeted runs additionally emit a tile-policy marker with the run's
// kernel-eval and warm-row counters:
//
//   [pairwise smoke] TILE_POLICY RESULT=OK|FAIL evals=.. full_sweep_floor=..
//
// TILE_POLICY RESULT=OK asserts the member-block swap sweep actually beat
// the full-table sweep's evaluation count (< iterations * n * (n - 1), the
// floor of a full-row sweep on a recomputing backend).
//
// Budgeted runs additionally gate FDBSCAN's two eps-sweeps, each on a
// smaller dataset:
//
//   [pairwise smoke] INDEX RESULT=OK|FAIL sweep=.. bound_tests=..
//   [pairwise smoke] BROAD RESULT=OK|FAIL sweep=.. kept=..
//
// INDEX RESULT=OK asserts that on a selective eps the probe picked the
// indexed sweep, that the index answered its candidate queries at <= 0.2x
// the n * (n - 1) / 2 pair-bound floor, and that its labels match the
// forced all-pairs sweep bit-for-bit. BROAD RESULT=OK asserts that on a
// broad eps the probe picked the all-pairs sweep (no index bound tests)
// and that its labels match the forced indexed sweep.
//
// Exit code: 0 for OK, 1 for FAIL, 3 for OOM.
//
// Flags:
//   --n=N                      objects               (default 20000)
//   --index_n=N                indexed-sweep objects (default 6000)
//   --m=M                      dimensions            (default 2)
//   --k=K                      clusters              (default 8)
//   --max_iters=I              PAM iteration cap     (default 2)
//   --threads=N --block_size=B --memory_budget_bytes=B   engine knobs
//   --seed=S                   master seed           (default 1)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_util.h"
#include "clustering/fdbscan.h"
#include "clustering/ukmedoids.h"
#include "common/cli.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"

namespace {

int Run(int argc, char** argv) {
  using namespace uclust;  // NOLINT: bench brevity
  const common::ArgParser args(argc, argv);
  const std::size_t n = static_cast<std::size_t>(args.GetInt("n", 20000));
  const std::size_t m = static_cast<std::size_t>(args.GetInt("m", 2));
  const int k = static_cast<int>(args.GetInt("k", 8));
  const int max_iters = static_cast<int>(args.GetInt("max_iters", 2));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  const engine::EngineConfig config =
      bench::EngineConfigFromFlagsOrDie(args, "pairwise smoke");
  const engine::Engine eng(config);

  std::printf("[pairwise smoke] n=%zu m=%zu k=%d budget=%zu bytes "
              "(dense table would be %.2f GiB)\n",
              n, m, k, config.memory_budget_bytes,
              static_cast<double>(n) * n * sizeof(double) /
                  (1024.0 * 1024.0 * 1024.0));

  data::MixtureParams mp;
  mp.n = n;
  mp.dims = m;
  mp.classes = k;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(mp, seed, "pairwise-smoke");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  const data::UncertainDataset ds =
      data::UncertaintyModel(d, up, seed + 1).Uncertain();
  std::printf("[pairwise smoke] dataset built, rss=%ld KB\n", bench::PeakRssKb());

  clustering::UkMedoids::Params params;
  params.use_closed_form = true;
  params.max_iters = max_iters;
  clustering::UkMedoids algo(params);
  algo.set_engine(eng);
  const clustering::ClusteringResult r = algo.Cluster(ds, k, seed);

  std::printf("[pairwise smoke] backend=%s iterations=%d clusters=%d "
              "offline=%.1fms online=%.1fms table_peak=%zu bytes "
              "rss=%ld KB\n",
              r.pairwise_backend.c_str(), r.iterations, r.clusters_found,
              r.offline_ms, r.online_ms, r.table_bytes_peak, bench::PeakRssKb());

  if (r.clusters_found < 1 ||
      r.labels.size() != ds.size()) {
    std::fprintf(stderr, "degenerate clustering\n");
    std::printf("[pairwise smoke] RESULT=FAIL\n");
    return 1;
  }
  // One row is the hard floor of row-granular access (tile_rows is at least
  // 1; see PairwiseStoreOptions), so a sub-row budget is checked against it.
  const std::size_t budget_floor =
      std::max(config.memory_budget_bytes, n * sizeof(double));
  if (config.memory_budget_bytes > 0 && r.table_bytes_peak > budget_floor) {
    std::fprintf(stderr, "table peak %zu exceeded the %zu-byte budget\n",
                 r.table_bytes_peak, budget_floor);
    std::printf("[pairwise smoke] RESULT=FAIL\n");
    return 1;
  }
  if (config.memory_budget_bytes > 0) {
    // A full-table swap sweep costs n * (n - 1) evaluations per iteration
    // on a recomputing backend; the member-block sweep must land strictly
    // below that floor.
    const int64_t full_sweep_floor = static_cast<int64_t>(r.iterations) *
                                     static_cast<int64_t>(n) *
                                     static_cast<int64_t>(n - 1);
    const bool tile_ok = r.pair_evaluations < full_sweep_floor;
    std::printf("[pairwise smoke] TILE_POLICY RESULT=%s evals=%lld "
                "full_sweep_floor=%lld warm_hits=%lld warm_misses=%lld\n",
                tile_ok ? "OK" : "FAIL",
                static_cast<long long>(r.pair_evaluations),
                static_cast<long long>(full_sweep_floor),
                static_cast<long long>(r.tile_warm_hits),
                static_cast<long long>(r.tile_warm_misses));
    if (!tile_ok) {
      std::printf("[pairwise smoke] RESULT=FAIL\n");
      return 1;
    }
  }
  if (config.memory_budget_bytes > 0) {
    // Spatial-index gate: on a selective eps the probe must pick the indexed
    // FDBSCAN eps-sweep, and its candidate queries must cost well below the
    // n * (n - 1) / 2 pair-bound floor the all-pairs sweep pays — the whole
    // point of candidate-SET pruning — while reproducing the all-pairs
    // labels bit-for-bit.
    const std::size_t index_n =
        static_cast<std::size_t>(args.GetInt("index_n", 6000));
    // The regime a range index targets: 3-D, broad clusters (moderate local
    // density) and localized uncertainty regions well below eps. Tight 2-D
    // cluster cores or fat regions push the TRUE eps-neighbor count — which
    // no exact index can undercut — toward all pairs.
    data::MixtureParams imp;
    imp.n = index_n;
    imp.dims = 3;
    imp.classes = k;
    imp.sigma_min = 0.15;
    imp.sigma_max = 0.25;
    imp.min_separation = 0.4;
    const data::DeterministicDataset id =
        data::MakeGaussianMixture(imp, seed + 2, "pairwise-smoke-index");
    data::UncertaintyParams iup = up;
    iup.min_scale_frac = 0.002;
    iup.max_scale_frac = 0.01;
    const data::UncertainDataset ids =
        data::UncertaintyModel(id, iup, seed + 3).Uncertain();
    using Sweep = clustering::Fdbscan::Sweep;
    clustering::Fdbscan::Params fp;
    fp.eps = 0.02;  // well below the class separation: most pairs prune
    clustering::Fdbscan fdbscan(fp);
    fdbscan.set_engine(eng);
    const clustering::ClusteringResult all_pairs =
        fdbscan.Cluster(ids, k, seed, Sweep::kAllPairs);
    const clustering::ClusteringResult probed = fdbscan.Cluster(ids, k, seed);
    const int64_t pair_floor = static_cast<int64_t>(index_n) *
                               static_cast<int64_t>(index_n - 1) / 2;
    const int64_t index_cost =
        probed.index_bound_tests + probed.index_candidates;
    const bool picked_index = probed.index_bound_tests > 0;
    const bool index_ok = picked_index &&
                          probed.labels == all_pairs.labels &&
                          index_cost * 5 <= pair_floor;  // <= 0.2x the floor
    std::printf("[pairwise smoke] INDEX RESULT=%s sweep=%s n=%zu "
                "bound_tests=%lld candidates=%lld cost=%lld "
                "pair_floor=%lld labels_match_all_pairs=%d online=%.1fms "
                "(all_pairs=%.1fms)\n",
                index_ok ? "OK" : "FAIL",
                picked_index ? "indexed" : "all_pairs", index_n,
                static_cast<long long>(probed.index_bound_tests),
                static_cast<long long>(probed.index_candidates),
                static_cast<long long>(index_cost),
                static_cast<long long>(pair_floor),
                probed.labels == all_pairs.labels ? 1 : 0, probed.online_ms,
                all_pairs.online_ms);
    if (!index_ok) {
      std::printf("[pairwise smoke] RESULT=FAIL\n");
      return 1;
    }

    // Broad gate: with the automatic eps on a 2-D mixture a large share of
    // pairs survives the bound, the index cannot pay for itself, and the
    // probe must pick the all-pairs sweep — with the indexed sweep's labels.
    constexpr std::size_t broad_n = 2000;
    data::MixtureParams bmp;
    bmp.n = broad_n;
    bmp.dims = 2;
    bmp.classes = k;
    const data::UncertainDataset bds =
        data::UncertaintyModel(
            data::MakeGaussianMixture(bmp, seed + 4, "pairwise-smoke-broad"),
            up, seed + 5)
            .Uncertain();
    clustering::Fdbscan broad;
    broad.set_engine(eng);
    const clustering::ClusteringResult indexed =
        broad.Cluster(bds, k, seed, Sweep::kIndexed);
    const clustering::ClusteringResult broad_probed =
        broad.Cluster(bds, k, seed);
    const bool picked_all_pairs = broad_probed.index_bound_tests == 0;
    const bool broad_ok =
        picked_all_pairs && broad_probed.labels == indexed.labels;
    std::printf("[pairwise smoke] BROAD RESULT=%s sweep=%s n=%zu "
                "kept=%lld of %lld pairs labels_match_indexed=%d "
                "online=%.1fms (indexed=%.1fms)\n",
                broad_ok ? "OK" : "FAIL",
                picked_all_pairs ? "all_pairs" : "indexed", broad_n,
                static_cast<long long>(broad_probed.pair_evaluations),
                static_cast<long long>(broad_probed.pair_evaluations +
                                       broad_probed.pairs_pruned),
                broad_probed.labels == indexed.labels ? 1 : 0,
                broad_probed.online_ms, indexed.online_ms);
    if (!broad_ok) {
      std::printf("[pairwise smoke] RESULT=FAIL\n");
      return 1;
    }
  }
  std::printf("[pairwise smoke] RESULT=OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::bad_alloc&) {
    std::printf("[pairwise smoke] RESULT=OOM\n");
    std::fflush(stdout);
    return 3;
  }
}
