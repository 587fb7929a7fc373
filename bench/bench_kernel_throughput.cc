// Microbench for the SIMD kernel layer (src/clustering/simd/): per-ISA
// throughput of the hot inner loops — the closed-form ED^ tile
// accumulation, the moment-column packing, the CK-means reduced-moment
// nearest-two center sweep (the center-lane kernel over the transposed
// centers), the relocation screen's gains and its vector stay test over
// k clusters, and the matched-realization kernels of the sampled
// algorithms at (m=2, S=24) and (m=16, S=32), one pair per call and four
// pairs of one row object per call (the PairwiseKernel::EvalRow unit) —
// plus a runtime cross-check that every compiled vector path reproduces
// the scalar reference bit for bit on the hardware the bench runs on (all
// of those and the realization count kernels).
//
// Output:
//   - a human-readable table (evals/s, GB/s, relocation objects/s,
//     realization pairs/s per pair and per row call, speedup vs forced
//     scalar),
//   - `DISPATCH best=<isa>` — what auto dispatch resolves to here,
//   - `KERNEL RESULT=OK|FAIL` — greppable smoke marker: OK iff every
//     available vector path's outputs (tiles, packed rows, gains, stay
//     minima and flags, realization sums and counts) match the scalar
//     reference bitwise, every path's four-pair row kernels (scalar
//     included) match the scalar per-pair sums and counts bitwise, and
//     every path's sweep (labels, best and runner-up distances) matches the
//     row-major scan of the scalar squared_distance in
//     tests/ukmeans_oracle.h bitwise (the bit-exactness contract, checked
//     at runtime, on real inputs, with remainder lanes),
//   - BENCH_kernel_throughput.json with everything above per ISA.
//
// Flags:
//   --m=D           dimensions per object             (default 64)
//   --tile_rows=R   rows per ED^ tile                 (default 64)
//   --n=N           objects (tile columns / sweep points) (default 2048)
//   --k=K           centers of the nearest-two sweep and clusters of the
//                   relocation kernels                (default 16)
//   --min_ms=T      min measured wall ms per kernel   (default 200)
//   --seed=S        input generator seed              (default 1)
//   --json_out=PATH JSON path (default BENCH_kernel_throughput.json)
#include <cfloat>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"
#include "bench_util.h"
#include "clustering/simd/simd.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "../tests/ukmeans_oracle.h"

namespace {

using namespace uclust;  // NOLINT: bench brevity
namespace simd = clustering::simd;

// Defeats dead-code elimination of the timed loops without perturbing them:
// every measured repetition folds its result into this sink.
double g_sink = 0.0;

struct Inputs {
  std::size_t m = 0;
  std::size_t tile_rows = 0;
  std::size_t n = 0;
  int k = 0;
  std::vector<double> means;      // n x m
  std::vector<double> mu2;        // n x m
  std::vector<double> var;        // n x m
  std::vector<double> total_var;  // n
  std::vector<double> centroids;  // k x m
  std::vector<double> center_lanes;  // m x k_pad (simd::ToCenterLanes)
};

Inputs MakeInputs(std::size_t m, std::size_t tile_rows, std::size_t n, int k,
                  uint64_t seed) {
  Inputs in;
  in.m = m;
  in.tile_rows = tile_rows;
  in.n = n;
  in.k = k;
  common::Rng rng(seed);
  in.means.resize(n * m);
  in.mu2.resize(n * m);
  in.var.resize(n * m);
  in.total_var.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double tv = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double mean = rng.Uniform(-10.0, 10.0);
      const double variance = rng.Uniform(0.0, 4.0);
      in.means[i * m + j] = mean;
      in.var[i * m + j] = variance;
      in.mu2[i * m + j] = variance + mean * mean;
      tv += variance;
    }
    in.total_var[i] = tv;
  }
  in.centroids.resize(static_cast<std::size_t>(k) * m);
  for (double& c : in.centroids) c = rng.Uniform(-10.0, 10.0);
  simd::ToCenterLanes(in.centroids.data(), k, m, &in.center_lanes);
  return in;
}

// One ED^ tile pass in a gather tile's shape: rows x n closed-form kernel
// evaluations through the table's ed2. Returns the number of evaluations.
std::size_t Ed2Tile(const simd::KernelTable& t, const Inputs& in,
                    std::vector<double>* out) {
  const std::size_t m = in.m;
  std::size_t evals = 0;
  for (std::size_t r = 0; r < in.tile_rows; ++r) {
    double* row = out->data() + r * in.n;
    const double* mean_r = in.means.data() + r * m;
    const double tv_r = in.total_var[r];
    for (std::size_t j = 0; j < in.n; ++j) {
      row[j] = t.ed2(mean_r, in.means.data() + j * m, m, tv_r,
                     in.total_var[j]);
      ++evals;
    }
  }
  return evals;
}

// One packing pass: every object's three moment columns through pack_row.
void PackPass(const simd::KernelTable& t, const Inputs& in,
              std::vector<double>* mean_out, std::vector<double>* mu2_out,
              std::vector<double>* var_out, std::vector<double>* tv_out) {
  const std::size_t m = in.m;
  for (std::size_t i = 0; i < in.n; ++i) {
    t.pack_row(in.means.data() + i * m, in.mu2.data() + i * m,
               in.var.data() + i * m, m, mean_out->data() + i * m,
               mu2_out->data() + i * m, var_out->data() + i * m,
               tv_out->data() + i);
  }
}

// Per-object outputs of one assignment sweep: the label and the best and
// runner-up squared distances.
struct SweepOut {
  std::vector<int> labels;
  std::vector<double> d2;  // n x {best, second}
  explicit SweepOut(std::size_t n) : labels(n), d2(2 * n) {}
  bool operator==(const SweepOut& o) const {
    return labels == o.labels &&
           std::memcmp(d2.data(), o.d2.data(), d2.size() * sizeof(double)) ==
               0;
  }
};

// One assignment sweep: every object against all k centers via nearest_two
// on the center-lane layout.
std::size_t SweepPass(const simd::KernelTable& t, const Inputs& in,
                      SweepOut* out) {
  const std::size_t m = in.m;
  for (std::size_t i = 0; i < in.n; ++i) {
    int best = 0;
    double best_d2 = 0.0;
    double second_d2 = 0.0;
    t.nearest_two(in.means.data() + i * m, in.center_lanes.data(), in.k, m,
                  -1, 0.0, &best, &best_d2, &second_d2);
    out->labels[i] = best;
    out->d2[2 * i] = best_d2;
    out->d2[2 * i + 1] = second_d2;
  }
  return in.n * static_cast<std::size_t>(in.k);
}

// The sweep's reference: the oracle's ascending-c, strict-< scan of
// squared_distance over the row-major centroids, which every path's
// nearest_two must match bit for bit.
void RowMajorSweep(const simd::KernelTable& t, const Inputs& in,
                   SweepOut* out) {
  for (std::size_t i = 0; i < in.n; ++i) {
    const clustering::oracle::NearestTwoResult r =
        clustering::oracle::NearestTwoScan(t, in.means.data() + i * in.m,
                                           in.centroids.data(), in.k, in.m);
    out->labels[i] = r.best;
    out->d2[2 * i] = r.best_d2;
    out->d2[2 * i + 1] = r.second_d2;
  }
}

// One relocation-screen pass: every object's gains against k clusters, the
// centroid block standing in for the m x k column sums (cross-check only).
void GainsPass(const simd::KernelTable& t, const Inputs& in,
               std::vector<double>* out) {
  const std::size_t m = in.m;
  const std::size_t k = static_cast<std::size_t>(in.k);
  std::vector<double> weight(k), norm(k), magnitude(k);
  for (std::size_t c = 0; c < k; ++c) {
    weight[c] = 1.0 / static_cast<double>(c + 2);
    norm[c] = in.total_var[c % in.n];
    magnitude[c] = norm[c] + 1.0;
  }
  const simd::GainColumns cols{in.centroids.data(), in.centroids.data(),
                               weight.data(),       weight.data(),
                               weight.data(),       magnitude.data(),
                               norm.data()};
  for (std::size_t i = 0; i < in.n; ++i) {
    const simd::GainObject o{in.means.data() + i * m, in.total_var[i],
                             in.mu2[i * m], in.var[i * m], in.total_var[i]};
    double* row = out->data() + i * 3 * k;
    t.relocation_gains(cols, in.k, m, o, row, row + k, row + 2 * k);
  }
}

// One stay-test pass over GainsPass's output: every object's minimum lower
// end and finiteness flag against the k clusters, the source cycling
// through the clusters and the bound constants of m = 16. Outputs n x {lo,
// flag}; returns the number of objects.
std::size_t StayPass(const simd::KernelTable& t, const Inputs& in,
                     const std::vector<double>& gains,
                     std::vector<double>* out) {
  const std::size_t k = static_cast<std::size_t>(in.k);
  const double scale = 4.0 * 32.0 * DBL_EPSILON;
  const double floor = 4.0 * 32.0 * DBL_MIN;
  for (std::size_t i = 0; i < in.n; ++i) {
    const double* row = gains.data() + i * 3 * k;
    const int source = static_cast<int>(i % k);
    double lo = 0.0;
    const bool finite =
        t.relocation_stay(row + k, row + 2 * k, in.k, source, row[k + source],
                          row[2 * k + source], scale, floor, &lo);
    (*out)[2 * i] = lo;
    (*out)[2 * i + 1] = finite ? 1.0 : 0.0;
  }
  return in.n;
}

// Repeats fn until at least min_ms of wall time is covered; returns
// (repetitions, elapsed seconds).
template <typename Fn>
std::pair<std::size_t, double> Measure(double min_ms, Fn&& fn) {
  std::size_t reps = 0;
  common::Stopwatch sw;
  do {
    fn();
    ++reps;
  } while (sw.ElapsedMs() < min_ms);
  return {reps, sw.ElapsedSeconds()};
}

// Matched-realization inputs of one (m, S) shape: kRealizationObjects
// objects of S realizations each, paired with their kRealizationPartners
// successors (cyclically) — the object-pair shape of the sampled kernels.
constexpr std::size_t kRealizationObjects = 512;
constexpr std::size_t kRealizationPartners = 8;

struct RealizationInputs {
  std::size_t m = 0;
  std::size_t s_count = 0;
  std::vector<double> samples;  // objects x S x m
};

RealizationInputs MakeRealizationInputs(std::size_t m, std::size_t s_count,
                                        uint64_t seed) {
  RealizationInputs in;
  in.m = m;
  in.s_count = s_count;
  common::Rng rng(seed);
  in.samples.resize(kRealizationObjects * s_count * m);
  for (double& x : in.samples) x = rng.Uniform(-3.0, 3.0);
  return in;
}

// One pass over every (object, partner) pair: the sampled ED^ sum into
// `sums` and, when `hits` is given, the FDBSCAN count at a mid-range eps.
// Returns the number of pairs.
std::size_t RealizationPass(const simd::KernelTable& t,
                            const RealizationInputs& in,
                            std::vector<double>* sums,
                            std::vector<std::size_t>* hits) {
  const std::size_t row = in.s_count * in.m;
  const double eps2 = 4.0 * static_cast<double>(in.m);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < kRealizationObjects; ++i) {
    const double* a = in.samples.data() + i * row;
    for (std::size_t r = 1; r <= kRealizationPartners; ++r) {
      const double* b =
          in.samples.data() + ((i + r) % kRealizationObjects) * row;
      (*sums)[pairs] =
          t.realization_squared_sum(a, b, in.s_count, in.m, in.m);
      if (hits != nullptr) {
        (*hits)[pairs] = t.realizations_within(a, b, in.s_count, in.m, eps2);
      }
      ++pairs;
    }
  }
  return pairs;
}

// RealizationPass through the four-pair kernels: object i against its
// kRealizationPartners successors, four per call, i as the first operand
// of each pair, as EvalRow pairs a row with partners above it.
std::size_t RealizationRowPass(const simd::KernelTable& t,
                               const RealizationInputs& in,
                               std::vector<double>* sums,
                               std::vector<std::size_t>* hits) {
  static_assert(kRealizationPartners % 4 == 0);
  const std::size_t row = in.s_count * in.m;
  const double eps2 = 4.0 * static_cast<double>(in.m);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < kRealizationObjects; ++i) {
    const double* a = in.samples.data() + i * row;
    for (std::size_t r = 1; r <= kRealizationPartners; r += 4) {
      const double* rows[4] = {a, a, a, a};
      const double* partners[4];
      for (std::size_t u = 0; u < 4; ++u) {
        partners[u] =
            in.samples.data() + ((i + r + u) % kRealizationObjects) * row;
      }
      t.realization_squared_sums4(rows, partners, in.s_count, in.m,
                                  sums->data() + pairs);
      if (hits != nullptr) {
        t.realizations_within4(rows, partners, in.s_count, in.m, eps2,
                               hits->data() + pairs);
      }
      pairs += 4;
    }
  }
  return pairs;
}

struct IsaResults {
  std::string name;
  double ed2_evals_per_s = 0.0;
  double ed2_gb_per_s = 0.0;
  double pack_gb_per_s = 0.0;
  double sweep_evals_per_s = 0.0;
  double gains_objects_per_s = 0.0;
  double stay_objects_per_s = 0.0;
  double pairs_m2_s24_per_s = 0.0;
  double pairs_m16_s32_per_s = 0.0;
  double row_pairs_m2_s24_per_s = 0.0;
  double row_pairs_m16_s32_per_s = 0.0;
  bool cross_check_ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::size_t m = static_cast<std::size_t>(args.GetInt("m", 64));
  const std::size_t tile_rows =
      static_cast<std::size_t>(args.GetInt("tile_rows", 64));
  const std::size_t n = static_cast<std::size_t>(args.GetInt("n", 2048));
  const int k = static_cast<int>(args.GetInt("k", 16));
  const double min_ms = args.GetDouble("min_ms", 200.0);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string json_out =
      args.GetString("json_out", "BENCH_kernel_throughput.json");

  const Inputs in = MakeInputs(m, tile_rows, n, k, seed);
  const simd::Isa best = simd::DetectBestIsa();
  std::printf("=== SIMD kernel throughput (m=%zu, tile=%zux%zu, k=%d) ===\n",
              m, tile_rows, n, k);
  std::printf("DISPATCH best=%s\n\n", simd::IsaName(best).c_str());

  // Scalar reference outputs for the runtime cross-check.
  const simd::KernelTable* scalar = simd::TableFor(simd::Isa::kScalar);
  std::vector<double> ref_tile(tile_rows * n);
  std::vector<double> ref_mean(n * m), ref_mu2(n * m), ref_var(n * m),
      ref_tv(n);
  SweepOut ref_sweep(n);
  std::vector<double> ref_gains(n * 3 * k);
  Ed2Tile(*scalar, in, &ref_tile);
  PackPass(*scalar, in, &ref_mean, &ref_mu2, &ref_var, &ref_tv);
  RowMajorSweep(*scalar, in, &ref_sweep);
  GainsPass(*scalar, in, &ref_gains);
  std::vector<double> ref_stay(2 * n);
  StayPass(*scalar, in, ref_gains, &ref_stay);
  const RealizationInputs shapes[] = {MakeRealizationInputs(2, 24, seed + 1),
                                      MakeRealizationInputs(16, 32, seed + 2)};
  const std::size_t n_pairs = kRealizationObjects * kRealizationPartners;
  std::vector<std::vector<double>> ref_sums;
  std::vector<std::vector<std::size_t>> ref_hits;
  for (const RealizationInputs& shape : shapes) {
    ref_sums.emplace_back(n_pairs);
    ref_hits.emplace_back(n_pairs);
    RealizationPass(*scalar, shape, &ref_sums.back(), &ref_hits.back());
  }

  const simd::Isa kCandidates[] = {simd::Isa::kScalar, simd::Isa::kAvx2};
  std::vector<IsaResults> results;
  bool all_ok = true;
  for (const simd::Isa isa : kCandidates) {
    const simd::KernelTable* table = simd::TableFor(isa);
    if (table == nullptr) continue;
    IsaResults r;
    r.name = simd::IsaName(isa);

    // Cross-check first (bitwise, memcmp over the output buffers): the
    // throughput numbers of a path that produces different bits would be
    // meaningless. The sweep is checked on every path, scalar included,
    // against the row-major reference scan.
    SweepOut sweep(n);
    SweepPass(*table, in, &sweep);
    r.cross_check_ok = sweep == ref_sweep;
    for (std::size_t q = 0; q < std::size(shapes); ++q) {
      std::vector<double> sums(n_pairs);
      std::vector<std::size_t> hits(n_pairs);
      RealizationRowPass(*table, shapes[q], &sums, &hits);
      r.cross_check_ok = r.cross_check_ok &&
                         std::memcmp(sums.data(), ref_sums[q].data(),
                                     sums.size() * sizeof(double)) == 0 &&
                         hits == ref_hits[q];
    }
    if (isa != simd::Isa::kScalar) {
      std::vector<double> tile(tile_rows * n);
      std::vector<double> mean(n * m), mu2(n * m), var(n * m), tv(n);
      std::vector<double> gains(n * 3 * k), stay(2 * n);
      Ed2Tile(*table, in, &tile);
      PackPass(*table, in, &mean, &mu2, &var, &tv);
      GainsPass(*table, in, &gains);
      StayPass(*table, in, ref_gains, &stay);
      r.cross_check_ok =
          r.cross_check_ok &&
          std::memcmp(tile.data(), ref_tile.data(),
                      tile.size() * sizeof(double)) == 0 &&
          std::memcmp(mean.data(), ref_mean.data(),
                      mean.size() * sizeof(double)) == 0 &&
          std::memcmp(mu2.data(), ref_mu2.data(),
                      mu2.size() * sizeof(double)) == 0 &&
          std::memcmp(var.data(), ref_var.data(),
                      var.size() * sizeof(double)) == 0 &&
          std::memcmp(tv.data(), ref_tv.data(),
                      tv.size() * sizeof(double)) == 0 &&
          std::memcmp(gains.data(), ref_gains.data(),
                      gains.size() * sizeof(double)) == 0 &&
          std::memcmp(stay.data(), ref_stay.data(),
                      stay.size() * sizeof(double)) == 0;
      for (std::size_t q = 0; q < std::size(shapes); ++q) {
        std::vector<double> sums(n_pairs);
        std::vector<std::size_t> hits(n_pairs);
        RealizationPass(*table, shapes[q], &sums, &hits);
        r.cross_check_ok =
            r.cross_check_ok &&
            std::memcmp(sums.data(), ref_sums[q].data(),
                        sums.size() * sizeof(double)) == 0 &&
            hits == ref_hits[q];
      }
    }
    all_ok = all_ok && r.cross_check_ok;

    // ED^ tile: each eval reads two mean rows (2 m doubles); GB/s counts
    // those reads (writes are one double per eval, negligible next to them).
    {
      std::vector<double> tile(tile_rows * n);
      std::size_t evals = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        evals += Ed2Tile(*table, in, &tile);
      });
      (void)reps;
      r.ed2_evals_per_s = static_cast<double>(evals) / secs;
      r.ed2_gb_per_s = r.ed2_evals_per_s * (2.0 * static_cast<double>(m)) *
                       sizeof(double) / 1e9;
      g_sink += tile[0];
    }
    // Moment packing: 3 m doubles read + 3 m + 1 written per row.
    {
      std::vector<double> mean(n * m), mu2(n * m), var(n * m), tv(n);
      std::size_t rows = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        PackPass(*table, in, &mean, &mu2, &var, &tv);
        rows += n;
      });
      (void)reps;
      const double bytes_per_row =
          (6.0 * static_cast<double>(m) + 1.0) * sizeof(double);
      r.pack_gb_per_s = static_cast<double>(rows) * bytes_per_row / secs / 1e9;
      g_sink += tv[0];
    }
    // Nearest-two sweep: n x k squared-distance evaluations per pass.
    {
      SweepOut sweep(n);
      std::size_t evals = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        evals += SweepPass(*table, in, &sweep);
      });
      (void)reps;
      r.sweep_evals_per_s = static_cast<double>(evals) / secs;
      g_sink += sweep.d2[0] - sweep.d2[1] + sweep.labels[0];
    }
    // Relocation screen: the gain kernel per object, then the stay test
    // over the gains it wrote.
    {
      std::vector<double> gains(n * 3 * k);
      std::size_t objects = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        GainsPass(*table, in, &gains);
        objects += n;
      });
      (void)reps;
      r.gains_objects_per_s = static_cast<double>(objects) / secs;
      g_sink += gains[0];
    }
    {
      std::vector<double> stay(2 * n);
      std::size_t objects = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        objects += StayPass(*table, in, ref_gains, &stay);
      });
      (void)reps;
      r.stay_objects_per_s = static_cast<double>(objects) / secs;
      g_sink += stay[0];
    }
    // Realization pairs: one realization_squared_sum call per object pair.
    for (std::size_t q = 0; q < std::size(shapes); ++q) {
      std::vector<double> sums(n_pairs);
      std::size_t pairs = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        pairs += RealizationPass(*table, shapes[q], &sums, nullptr);
      });
      (void)reps;
      (q == 0 ? r.pairs_m2_s24_per_s : r.pairs_m16_s32_per_s) =
          static_cast<double>(pairs) / secs;
      g_sink += sums[0];
    }
    // The same pairs, four per realization_squared_sums4 call.
    for (std::size_t q = 0; q < std::size(shapes); ++q) {
      std::vector<double> sums(n_pairs);
      std::size_t pairs = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        pairs += RealizationRowPass(*table, shapes[q], &sums, nullptr);
      });
      (void)reps;
      (q == 0 ? r.row_pairs_m2_s24_per_s : r.row_pairs_m16_s32_per_s) =
          static_cast<double>(pairs) / secs;
      g_sink += sums[0];
    }
    results.push_back(std::move(r));
  }

  double scalar_ed2 = 0.0;
  for (const IsaResults& r : results) {
    if (r.name == "scalar") scalar_ed2 = r.ed2_evals_per_s;
  }
  std::printf("%-8s %14s %10s %10s %14s %12s %12s %16s %17s %16s %17s %9s "
              "%6s\n",
              "isa", "ed2 evals/s", "ed2 GB/s", "pack GB/s", "sweep evals/s",
              "gains obj/s", "stay obj/s", "pairs/s m2 S24",
              "pairs/s m16 S32", "row4/s m2 S24", "row4/s m16 S32",
              "vs scalar", "bits");
  for (const IsaResults& r : results) {
    std::printf("%-8s %14.3g %10.2f %10.2f %14.3g %12.3g %12.3g %16.3g %17.3g "
                "%16.3g %17.3g %8.2fx %6s\n",
                r.name.c_str(), r.ed2_evals_per_s, r.ed2_gb_per_s,
                r.pack_gb_per_s, r.sweep_evals_per_s, r.gains_objects_per_s,
                r.stay_objects_per_s, r.pairs_m2_s24_per_s,
                r.pairs_m16_s32_per_s, r.row_pairs_m2_s24_per_s,
                r.row_pairs_m16_s32_per_s,
                scalar_ed2 > 0 ? r.ed2_evals_per_s / scalar_ed2 : 0.0,
                !r.cross_check_ok ? "DIFF"
                                  : (r.name == "scalar" ? "ref" : "ok"));
  }

  common::JsonWriter json;
  json.BeginObject();
  json.KV("bench", "kernel_throughput");
  json.Key("config");
  json.BeginObject();
  json.KV("m", m);
  json.KV("tile_rows", tile_rows);
  json.KV("n", n);
  json.KV("k", k);
  json.KV("min_ms", min_ms);
  json.KV("seed", static_cast<int64_t>(seed));
  json.KV("hardware_threads",
          static_cast<int64_t>(bench::HardwareThreads()));
  json.KV("dispatch_best", simd::IsaName(best));
  json.EndObject();
  json.Key("isas");
  json.BeginArray();
  for (const IsaResults& r : results) {
    json.BeginObject();
    json.KV("isa", r.name);
    json.KV("ed2_evals_per_s", r.ed2_evals_per_s);
    json.KV("ed2_gb_per_s", r.ed2_gb_per_s);
    json.KV("pack_gb_per_s", r.pack_gb_per_s);
    json.KV("sweep_evals_per_s", r.sweep_evals_per_s);
    json.KV("relocation_gains_objects_per_s", r.gains_objects_per_s);
    json.KV("relocation_stay_objects_per_s", r.stay_objects_per_s);
    json.KV("realization_pairs_per_s_m2_s24", r.pairs_m2_s24_per_s);
    json.KV("realization_pairs_per_s_m16_s32", r.pairs_m16_s32_per_s);
    json.KV("realization_row_pairs_per_s_m2_s24", r.row_pairs_m2_s24_per_s);
    json.KV("realization_row_pairs_per_s_m16_s32",
            r.row_pairs_m16_s32_per_s);
    json.KV("ed2_speedup_vs_scalar",
            scalar_ed2 > 0 ? r.ed2_evals_per_s / scalar_ed2 : 0.0);
    json.KV("cross_check_ok", r.cross_check_ok);
    json.EndObject();
  }
  json.EndArray();
  json.KV("cross_check_ok", all_ok);
  json.EndObject();
  if (json.WriteFile(json_out)) {
    std::printf("\n[wrote %s]\n", json_out.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
  }

  // Greppable smoke marker (CI gates this, not the speedup ratio, so
  // non-AVX2 runners stay green).
  std::printf("KERNEL RESULT=%s\n", all_ok ? "OK" : "FAIL");
  if (g_sink == 12345.6789) std::printf("(sink %f)\n", g_sink);
  return all_ok ? 0 : 1;
}
