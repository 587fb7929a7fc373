// Tests for CK-means (clustering/ckmeans.h), the one UK-means: the
// bound-pruned Lloyd loop must reproduce the direct UK-means sweeps
// (oracle::DirectUkmeans, tests/ukmeans_oracle.h) bit-for-bit on every
// moment backend, the maintained bounds must actually bound, the
// evaluation counters must satisfy their accounting contract, the registry
// must build it under both names, and the file-backed driver must match the
// fully ingested run in both its resident and its mapped .umom branch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "clustering/ckmeans.h"
#include "clustering/registry.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "data/benchmark_gen.h"
#include "data/synthetic_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "io/ingest.h"
#include "io/moment_file.h"
#include "ukmeans_oracle.h"

namespace uclust::clustering {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

std::string TempPath(const std::string& file) {
  return ::testing::TempDir() + file;
}

data::UncertainDataset TestDataset(std::size_t n, std::size_t m, int classes,
                                   uint64_t seed) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "ckmeans");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

engine::Engine EngineWith(int threads, std::size_t budget = 0) {
  engine::EngineConfig config;
  config.num_threads = threads;
  config.block_size = 128;
  config.memory_budget_bytes = budget;
  return engine::Engine(config);
}

// ---------------------------------------------------------------------------
// Bit-identity against the direct reference.

// CK-means reads the caller's view in place: over a chunked mapped view it
// must reproduce the oracle over the flat view.
TEST(Ckmeans, MatchesDirectOnChunkedMappedBackend) {
  const auto ds = TestDataset(300, 4, 4, 23);
  const auto flat = ds.moments().view();
  const std::string sidecar = TempPath("ckmeans_chunked.umom");
  ASSERT_TRUE(io::WriteMomentFile(flat, sidecar, /*chunk_rows=*/8).ok());
  auto store = io::MappedMomentStore::Open(sidecar);
  ASSERT_TRUE(store.ok());
  const auto mapped = store.ValueOrDie()->view();

  const auto direct = oracle::DirectUkmeans(flat, 4, 5, CkMeans::Params(),
                                            EngineWith(1));
  for (int threads : kThreadCounts) {
    const auto out = CkMeans::RunOnMoments(mapped, 4, 5, CkMeans::Params(),
                                           EngineWith(threads));
    EXPECT_EQ(out.labels, direct.labels) << "threads=" << threads;
    EXPECT_EQ(out.objective, direct.objective) << "threads=" << threads;
    EXPECT_EQ(out.iterations, direct.iterations) << "threads=" << threads;
    EXPECT_EQ(out.center_distance_evals + out.bounds_skipped,
              direct.center_distance_evals)
        << "threads=" << threads;
  }
  std::remove(sidecar.c_str());
}

// The one CK-means path must reproduce the direct UK-means sweeps at every
// thread count; its pruning counters, a pure function of the deterministic
// bound decisions, must not depend on the thread count either.
TEST(Ckmeans, MatchesDirectPathAcrossThreadCounts) {
  const auto ds = TestDataset(500, 3, 4, 25);
  const auto mm = ds.moments().view();
  const auto direct =
      oracle::DirectUkmeans(mm, 4, 9, CkMeans::Params(), EngineWith(1));
  CkMeans::Outcome serial;
  for (int threads : kThreadCounts) {
    const auto out =
        CkMeans::RunOnMoments(mm, 4, 9, CkMeans::Params(), EngineWith(threads));
    EXPECT_EQ(out.labels, direct.labels) << "threads=" << threads;
    EXPECT_EQ(out.objective, direct.objective) << "threads=" << threads;
    EXPECT_EQ(out.iterations, direct.iterations) << "threads=" << threads;
    if (threads == 1) {
      serial = out;
    } else {
      EXPECT_EQ(out.center_distance_evals, serial.center_distance_evals)
          << "threads=" << threads;
      EXPECT_EQ(out.bounds_skipped, serial.bounds_skipped)
          << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// The update re-sums only the clusters a sweep changed.

engine::Engine EngineWithBlocks(int threads, std::size_t block_size) {
  engine::EngineConfig config;
  config.num_threads = threads;
  config.block_size = block_size;
  return engine::Engine(config);
}

// A re-summed row and count carry the full sum's bits; every other row and
// count is left exactly as the caller had it.
TEST(CkmeansUpdate, MaskedSumMatchesFullSumRowForRow) {
  const auto ds = TestDataset(700, 5, 4, 31);
  const auto mm = ds.moments().view();
  constexpr int k = 7;
  constexpr std::size_t m = 5;
  common::Rng rng(4242);
  std::vector<int> labels(mm.size());
  // Cluster 6 stays empty: its re-summed row must come back all +0.0.
  for (int& l : labels) l = static_cast<int>(rng.Index(k - 1));
  constexpr double kSentinel = -7.25;
  constexpr std::size_t kCountSentinel = 999;
  int masked_rows = 0, kept_rows = 0;
  for (const std::size_t block : {1, 7, 64, 1024}) {
    for (const int threads : kThreadCounts) {
      const engine::Engine eng = EngineWithBlocks(threads, block);
      std::vector<double> full_sums;
      std::vector<std::size_t> full_counts;
      kernels::SumMeansByLabel(eng, mm, labels, k, &full_sums, &full_counts);
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<uint8_t> resum(k);
        for (uint8_t& f : resum) f = rng.Index(2) == 0 ? 0 : 1;
        if (trial == 0) std::fill(resum.begin(), resum.end(), uint8_t{1});
        if (trial == 1) std::fill(resum.begin(), resum.end(), uint8_t{0});
        std::vector<double> sums(k * m, kSentinel);
        std::vector<std::size_t> counts(k, kCountSentinel);
        kernels::SumMeansByLabel(eng, mm, labels, k, resum, &sums, &counts);
        const std::string where = "block=" + std::to_string(block) +
                                  " threads=" + std::to_string(threads) +
                                  " trial=" + std::to_string(trial);
        for (int c = 0; c < k; ++c) {
          if (resum[c] != 0) {
            ++masked_rows;
            EXPECT_EQ(counts[c], full_counts[c]) << where << " c=" << c;
          } else {
            ++kept_rows;
            EXPECT_EQ(counts[c], kCountSentinel) << where << " c=" << c;
          }
          for (std::size_t j = 0; j < m; ++j) {
            const double want =
                resum[c] != 0 ? full_sums[c * m + j] : kSentinel;
            EXPECT_EQ(std::memcmp(&sums[c * m + j], &want, sizeof(double)),
                      0)
                << where << " c=" << c << " j=" << j;
          }
        }
      }
    }
  }
  EXPECT_GT(masked_rows, 0);
  EXPECT_GT(kept_rows, 0);
}

// 40 copies of one expected value and 40 scattered ones: a seeding that
// draws the copy twice leaves the later center without members, so the
// update reseeds it, and the reseeded center can win members back later.
// Every such run must still match the direct loop, which re-sums every
// cluster on every update.
TEST(CkmeansUpdate, EmptiedAndReseededClustersMatchDirectLoop) {
  constexpr std::size_t n = 80;
  constexpr std::size_t m = 2;
  constexpr int k = 6;
  common::Rng rng(77);
  std::vector<double> means(n * m, 0.0), constants(n);
  for (std::size_t i = n / 2; i < n; ++i) {
    means[i * m] = rng.Uniform(10.0, 20.0);
    means[i * m + 1] = rng.Uniform(10.0, 20.0);
  }
  for (double& c : constants) c = rng.Uniform(0.0, 1.0);
  const uncertain::MomentView view(n, m, means.data(), nullptr, nullptr,
                                   constants.data());
  int runs_with_empty = 0, runs_with_refill = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const auto direct = oracle::DirectUkmeans(view, k, seed,
                                              CkMeans::Params(),
                                              EngineWithBlocks(1, 16));
    for (const int threads : kThreadCounts) {
      // Which clusters each update left empty, by iteration.
      std::vector<std::vector<bool>> empty;
      CkMeans::Params p;
      p.bound_audit = [&](int, std::span<const double>,
                          std::span<const int> labels,
                          std::span<const double>, std::span<const double>) {
        std::vector<bool> none(k, true);
        for (const int l : labels) none[l] = false;
        empty.push_back(none);
      };
      const auto out = CkMeans::RunOnMoments(view, k, seed, p,
                                             EngineWithBlocks(threads, 16));
      const std::string where = "seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(out.labels, direct.labels) << where;
      EXPECT_EQ(out.objective, direct.objective) << where;
      EXPECT_EQ(out.iterations, direct.iterations) << where;
      EXPECT_EQ(out.converged, direct.converged) << where;
      if (threads != 1) continue;
      bool had_empty = false, refilled = false;
      for (std::size_t it = 0; it < empty.size(); ++it) {
        for (int c = 0; c < k; ++c) {
          if (!empty[it][c]) continue;
          had_empty = true;
          for (std::size_t later = it + 1; later < empty.size(); ++later) {
            refilled = refilled || !empty[later][c];
          }
        }
      }
      runs_with_empty += had_empty;
      runs_with_refill += refilled;
    }
  }
  EXPECT_GT(runs_with_empty, 0);
  EXPECT_GT(runs_with_refill, 0);
}

// ---------------------------------------------------------------------------
// Bound invariants and counter accounting.

// The sweep loosens each block's bounds in its settle pass and the audit
// sees copies loosened by the same helper. k = 16 puts the centers in one
// padded lane group and k = 17 adds a row-major tail; block size 16 makes
// many blocks build their own candidate lists.
TEST(Ckmeans, MaintainedBoundsActuallyBound) {
  const auto ds = TestDataset(300, 3, 4, 29);
  const auto mm = ds.moments().view();
  for (const int k : {1, 4, 16, 17}) {
    for (const int threads : {1, 4}) {
      const std::string where =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      int audits = 0;
      CkMeans::Params p;
      p.bound_audit = [&](int iteration, std::span<const double> centroids,
                          std::span<const int> labels,
                          std::span<const double> upper,
                          std::span<const double> lower) {
        ASSERT_EQ(upper.size(), mm.size());
        ASSERT_EQ(lower.size(), mm.size());
        const std::size_t m = mm.dims();
        ASSERT_EQ(centroids.size(), static_cast<std::size_t>(k) * m);
        for (std::size_t i = 0; i < mm.size(); ++i) {
          const auto mean = mm.mean(i);
          double assigned = 0.0;
          double min_other = std::numeric_limits<double>::infinity();
          for (int c = 0; c < k; ++c) {
            const double d = std::sqrt(common::SquaredDistance(
                mean, std::span<const double>(centroids.data() + c * m, m)));
            if (c == labels[i]) {
              assigned = d;
            } else {
              min_other = std::min(min_other, d);
            }
          }
          // The loosened bounds must still bracket the true distances (the
          // 1e-9 headroom only covers this test's own recomputation error).
          ASSERT_GE(upper[i], assigned - 1e-9)
              << where << " iter " << iteration << " object " << i;
          ASSERT_LE(lower[i], min_other + 1e-9)
              << where << " iter " << iteration << " object " << i;
        }
        ++audits;
      };
      const auto out =
          CkMeans::RunOnMoments(mm, k, 13, p, EngineWithBlocks(threads, 16));
      EXPECT_GT(audits, 0) << where;
      const auto direct = oracle::DirectUkmeans(mm, k, 13, CkMeans::Params(),
                                                EngineWithBlocks(threads, 16));
      EXPECT_EQ(out.labels, direct.labels) << where;
    }
  }
}

// At k = 1 the lower bounds and the half separation are +inf, so the
// settle pass of the second sweep settles every object: one update, then a
// converged sweep that evaluates nothing.
TEST(Ckmeans, KEqualsOneSettlesEveryObjectAfterTheFirstSweep) {
  const auto ds = TestDataset(500, 4, 3, 41);
  const auto mm = ds.moments().view();
  const int64_t n = static_cast<int64_t>(mm.size());
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (const int threads : {1, 4}) {
      const std::string where = "seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);
      const engine::Engine eng = EngineWithBlocks(threads, 64);
      const auto out = CkMeans::RunOnMoments(mm, 1, seed, CkMeans::Params(),
                                             eng);
      EXPECT_EQ(out.iterations, 1) << where;
      EXPECT_TRUE(out.converged) << where;
      EXPECT_EQ(out.center_distance_evals, n) << where;
      EXPECT_EQ(out.bounds_skipped, n) << where;
      const auto direct =
          oracle::DirectUkmeans(mm, 1, seed, CkMeans::Params(), eng);
      EXPECT_EQ(out.labels, direct.labels) << where;
      EXPECT_EQ(std::memcmp(&out.objective, &direct.objective,
                            sizeof(double)),
                0)
          << where;
    }
  }
}

TEST(Ckmeans, CountersSatisfyAccountingContract) {
  const auto ds = TestDataset(600, 3, 5, 31);
  const auto mm = ds.moments().view();
  const int64_t n = static_cast<int64_t>(mm.size());
  const int k = 5;

  // Sweeps actually run: iterations + 1 on a converged run (the final
  // no-change sweep executes before the loop breaks), iterations at the cap.
  const auto expected_slots = [&](const CkMeans::Outcome& out) {
    const int sweeps = out.iterations + (out.converged ? 1 : 0);
    return static_cast<int64_t>(sweeps) * n * k;
  };

  const auto bounded =
      CkMeans::RunOnMoments(mm, k, 15, CkMeans::Params(), EngineWith(2));
  EXPECT_TRUE(bounded.converged);
  EXPECT_EQ(bounded.center_distance_evals + bounded.bounds_skipped,
            expected_slots(bounded));
  EXPECT_GT(bounded.bounds_skipped, 0);

  // Direct reference: counts every pair every sweep.
  const auto direct =
      oracle::DirectUkmeans(mm, k, 15, CkMeans::Params(), EngineWith(2));
  EXPECT_TRUE(direct.converged);
  EXPECT_EQ(direct.center_distance_evals, expected_slots(direct));
  EXPECT_LT(bounded.center_distance_evals, direct.center_distance_evals);
  // The bounded run's total accounts for exactly the direct run's slots.
  EXPECT_EQ(bounded.center_distance_evals + bounded.bounds_skipped,
            direct.center_distance_evals);
}

// The cap is the only other way the loop stops: one iteration cannot
// converge (the first sweep labels every object), so max_iters = 1 reports
// converged == false and one sweep's slots.
TEST(Ckmeans, IterationCapReportsNotConverged) {
  const auto ds = TestDataset(300, 3, 4, 35);
  const auto mm = ds.moments().view();
  CkMeans::Params p;
  p.max_iters = 1;
  const auto out = CkMeans::RunOnMoments(mm, 4, 3, p, EngineWith(2));
  EXPECT_FALSE(out.converged);
  EXPECT_EQ(out.iterations, 1);
  EXPECT_EQ(out.center_distance_evals + out.bounds_skipped,
            static_cast<int64_t>(mm.size()) * 4);
  const auto direct = oracle::DirectUkmeans(mm, 4, 3, p, EngineWith(2));
  EXPECT_FALSE(direct.converged);
  EXPECT_EQ(direct.labels, out.labels);
}

TEST(Ckmeans, CountersMonotoneInIterationCap) {
  const auto ds = TestDataset(400, 3, 4, 33);
  const auto mm = ds.moments().view();
  int64_t prev_evals = 0;
  int64_t prev_total = 0;
  for (const int cap : {1, 2, 4, 8}) {
    CkMeans::Params p;
    p.max_iters = cap;
    const auto out = CkMeans::RunOnMoments(mm, 4, 17, p, EngineWith(2));
    const int64_t total = out.center_distance_evals + out.bounds_skipped;
    EXPECT_GE(out.center_distance_evals, prev_evals) << "cap=" << cap;
    EXPECT_GE(total, prev_total) << "cap=" << cap;
    prev_evals = out.center_distance_evals;
    prev_total = total;
  }
}

// The paper's Lloyd invariant on CK-means and the direct oracle: the objective
// reported at max_iters = 1, 2, 4, 8, ... never increases. At cap t the
// result is J(L_t, c_t) with the centres c_t fitted to the labels L_t, so
// J(L_{t+1}, c_{t+1}) <= J(L_{t+1}, c_t) <= J(L_t, c_t); an empty-cluster
// reseed touches no member. The relative slack covers rounding.
template <typename Run>
void ExpectObjectiveNonIncreasingInCap(const char* path, const Run& run) {
  const auto ds = TestDataset(600, 2, 6, 41);
  const auto mm = ds.moments().view();
  int longest_run = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    double prev = std::numeric_limits<double>::infinity();
    for (int cap = 1; cap <= 128; cap *= 2) {
      const auto [objective, iterations] = run(mm, seed, cap);
      EXPECT_LE(objective, prev * (1.0 + 1e-12))
          << path << " seed=" << seed << " cap=" << cap;
      prev = objective;
      longest_run = std::max(longest_run, iterations);
    }
  }
  EXPECT_GE(longest_run, 4) << path << ": every run converged too early";
}

TEST(LloydInvariant, CkmeansObjectiveNeverIncreasesWithIterationCap) {
  ExpectObjectiveNonIncreasingInCap(
      "CK-means",
      [](const uncertain::MomentView& mm, uint64_t seed, int cap) {
        CkMeans::Params p;
        p.max_iters = cap;
        const auto out = CkMeans::RunOnMoments(mm, 6, seed, p, EngineWith(2));
        return std::pair<double, int>(out.objective, out.iterations);
      });
}

TEST(LloydInvariant, UkmeansDirectObjectiveNeverIncreasesWithIterationCap) {
  ExpectObjectiveNonIncreasingInCap(
      "UK-means",
      [](const uncertain::MomentView& mm, uint64_t seed, int cap) {
        CkMeans::Params p;
        p.max_iters = cap;
        const auto out = oracle::DirectUkmeans(mm, 6, seed, p, EngineWith(2));
        return std::pair<double, int>(out.objective, out.iterations);
      });
}

// ---------------------------------------------------------------------------
// The registry's UK-means.

// The registered "UK-means" is CK-means: the direct reference's labels,
// objective, and iterations, with fewer center-distance evaluations.
TEST(Ckmeans, UkmeansClusterMatchesDirectWithFewerEvaluations) {
  const auto ds = TestDataset(500, 3, 4, 35);
  const auto direct = oracle::DirectUkmeans(
      ds.moments().view(), 4, 19, CkMeans::Params(), EngineWith(2));
  EXPECT_GT(direct.center_distance_evals, 0);

  auto algo = MakeClusterer("UK-means", EngineWith(2));
  ASSERT_TRUE(algo.ok());
  const ClusteringResult fast = algo.ValueOrDie()->Cluster(ds, 4, 19);

  EXPECT_EQ(fast.labels, direct.labels);
  EXPECT_EQ(fast.objective, direct.objective);
  EXPECT_EQ(fast.iterations, direct.iterations);
  EXPECT_LT(fast.center_distance_evals, direct.center_distance_evals);
  EXPECT_GT(fast.bounds_skipped, 0);
}

// "UK-means" and "CK-means" build one algorithm: identical results and
// counters, each reporting the name it was built under.
TEST(Ckmeans, RegistryEntryMatchesUkmeans) {
  const auto ds = TestDataset(300, 3, 3, 37);
  auto uk = MakeClusterer("UK-means");
  auto ck = MakeClusterer("CK-means");
  ASSERT_TRUE(uk.ok());
  ASSERT_TRUE(ck.ok());
  EXPECT_EQ(uk.ValueOrDie()->name(), "UK-means");
  EXPECT_EQ(ck.ValueOrDie()->name(), "CK-means");
  const ClusteringResult a = uk.ValueOrDie()->Cluster(ds, 3, 21);
  const ClusteringResult b = ck.ValueOrDie()->Cluster(ds, 3, 21);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.center_distance_evals, b.center_distance_evals);
  EXPECT_EQ(a.bounds_skipped, b.bounds_skipped);
}

// ---------------------------------------------------------------------------
// File-backed driver: the resident and the mapped .umom branches.

// Writes a synthetic .ubin and runs both references over its fully
// ingested moments: the direct UK-means sweeps (labels, objective,
// iterations) and CK-means RunOnMoments (the pruning counters).
struct FileFixture {
  std::string path;
  std::size_t n = 0;
  std::size_t m = 6;
  int k = 4;
  uint64_t seed = 23;
  CkMeans::Outcome direct;
  CkMeans::Outcome fast;

  std::size_t resident_bytes() const {
    return (3 * m + 1) * n * sizeof(double);
  }
};

void RunReferences(FileFixture* f) {
  auto store = io::StreamMomentStoreFromFile(f->path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto mm = store.ValueOrDie()->view();
  // Same block size as EngineWith: the objective's blocked summation order
  // is part of the determinism contract (fixed partition, any threads).
  f->direct = oracle::DirectUkmeans(mm, f->k, f->seed, CkMeans::Params(),
                                    EngineWith(1));
  f->fast = CkMeans::RunOnMoments(mm, f->k, f->seed, CkMeans::Params(),
                                  EngineWith(1));
}

FileFixture MakeFileFixture(std::size_t n) {
  FileFixture f;
  f.n = n;
  f.path = TempPath("ckmeans_file_" + std::to_string(n) + ".ubin");
  data::SyntheticGenParams gp;
  gp.n = n;
  gp.m = f.m;
  gp.classes = 4;
  gp.seed = 97;
  EXPECT_TRUE(data::WriteSyntheticDataset(gp, f.path, "file").ok());
  RunReferences(&f);
  return f;
}

void ExpectMatchesReferences(const ClusteringResult& out,
                             const FileFixture& f, const std::string& trace) {
  EXPECT_EQ(out.labels, f.direct.labels) << trace;
  EXPECT_EQ(out.objective, f.direct.objective) << trace;
  EXPECT_EQ(out.iterations, f.direct.iterations) << trace;
  EXPECT_EQ(out.center_distance_evals, f.fast.center_distance_evals) << trace;
  EXPECT_EQ(out.bounds_skipped, f.fast.bounds_skipped) << trace;
}

void RemoveFixture(const FileFixture& f, const std::string& sidecar) {
  std::remove(f.path.c_str());
  std::remove(sidecar.c_str());
}

// Unlimited, exactly-fitting and one-byte-short budgets: the first two keep
// the (3m + 1) * n moment doubles resident, the last runs on the mapped
// store.
TEST(CkmeansClusterFile, EveryBudgetMatchesIngestedRun) {
  const FileFixture f = MakeFileFixture(600);
  const std::string sidecar = TempPath("ckmeans_budget.umom");
  std::remove(sidecar.c_str());
  for (const std::size_t budget :
       {std::size_t{0}, f.resident_bytes(), f.resident_bytes() - 1}) {
    const bool resident = budget != f.resident_bytes() - 1;
    EXPECT_EQ(io::ResidentMomentsFit(f.n, f.m, EngineWith(1, budget)),
              resident);
    {
      auto store = OpenMomentStore(f.path, f.k, EngineWith(1, budget),
                                   sidecar);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      EXPECT_EQ(store.ValueOrDie()->backend(),
                resident ? uncertain::MomentBackend::kResident
                         : uncertain::MomentBackend::kMapped)
          << "budget=" << budget;
    }
    for (int threads : kThreadCounts) {
      const std::string trace = "budget=" + std::to_string(budget) +
                                " threads=" + std::to_string(threads);
      auto r = CkMeans::ClusterFile(f.path, f.k, f.seed, CkMeans::Params(),
                                    EngineWith(threads, budget), sidecar);
      ASSERT_TRUE(r.ok()) << trace << ": " << r.status().ToString();
      ExpectMatchesReferences(r.ValueOrDie(), f, trace);
    }
    // Only the mapped branch writes a sidecar.
    EXPECT_EQ(std::filesystem::exists(sidecar), !resident)
        << "budget=" << budget;
  }
  RemoveFixture(f, sidecar);
}

// The mapped branch at every chunk granularity: chunk windows decide which
// rows share a mapping, never the served values or the fold order.
TEST(CkmeansClusterFile, MappedSweepMatchesIngestedRun) {
  const FileFixture f = MakeFileFixture(600);
  const std::string sidecar = TempPath("ckmeans_mapped_sweep.umom");
  for (const std::size_t chunk_rows :
       {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    // Pre-built at this granularity: at 2048 bytes the budget requires
    // 64-row chunks, so every run reuses the smaller-or-equal ones.
    ASSERT_TRUE(io::BuildMomentSidecar(f.path, sidecar, chunk_rows).ok());
    for (int threads : kThreadCounts) {
      const std::string trace = "chunk_rows=" + std::to_string(chunk_rows) +
                                " threads=" + std::to_string(threads);
      engine::EngineConfig config;
      config.num_threads = threads;
      config.block_size = 128;
      config.memory_budget_bytes = 2048;  // far below the moment columns
      auto r = CkMeans::ClusterFile(f.path, f.k, f.seed, CkMeans::Params(),
                                    engine::Engine(config), sidecar);
      ASSERT_TRUE(r.ok()) << trace << ": " << r.status().ToString();
      ExpectMatchesReferences(r.ValueOrDie(), f, trace);
    }
    auto store = io::MappedMomentStore::Open(sidecar);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.ValueOrDie()->chunk_rows(), chunk_rows);
  }
  RemoveFixture(f, sidecar);
}

// Without a moments path the mapped branch writes <dataset>.umom, and the
// next run reuses it instead of rebuilding.
TEST(CkmeansClusterFile, MappedBranchWritesAndReusesTheDefaultSidecar) {
  const FileFixture f = MakeFileFixture(800);
  const std::string sidecar = f.path + ".umom";
  std::remove(sidecar.c_str());
  CkMeans::Params p;
  auto first = CkMeans::ClusterFile(f.path, f.k, f.seed, p,
                                    EngineWith(2, 2048));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectMatchesReferences(first.ValueOrDie(), f, "cold");
  ASSERT_TRUE(std::filesystem::exists(sidecar));
  const auto built = std::filesystem::last_write_time(sidecar);
  auto second = CkMeans::ClusterFile(f.path, f.k, f.seed, p,
                                     EngineWith(2, 2048));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectMatchesReferences(second.ValueOrDie(), f, "reused");
  EXPECT_EQ(std::filesystem::last_write_time(sidecar), built);
  RemoveFixture(f, sidecar);
}

TEST(CkmeansClusterFile, RewrittenFileFinishesOnTheOpenedSnapshot) {
  // A .ubin rewritten mid-run (same n, m and byte size, new content): the
  // run keeps reading the sidecar it opened and matches the original
  // file's direct run; the next run sees the new source triple, rebuilds
  // the sidecar and matches the new file's direct run.
  const FileFixture f = MakeFileFixture(400);
  const std::string sidecar = TempPath("ckmeans_rewrite.umom");
  const auto size = std::filesystem::file_size(f.path);
  data::SyntheticGenParams other;
  other.n = f.n;
  other.m = f.m;
  other.classes = 4;
  other.seed = 98;
  CkMeans::Params p;
  bool rewritten = false;
  p.bound_audit = [&](int, std::span<const double>, std::span<const int>,
                      std::span<const double>, std::span<const double>) {
    if (rewritten) return;
    rewritten = true;
    ASSERT_TRUE(data::WriteSyntheticDataset(other, f.path, "file").ok());
    ASSERT_EQ(size, std::filesystem::file_size(f.path));
  };
  auto during = CkMeans::ClusterFile(f.path, f.k, f.seed, p,
                                     EngineWith(2, 2048), sidecar);
  ASSERT_TRUE(rewritten);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  ExpectMatchesReferences(during.ValueOrDie(), f, "during rewrite");

  FileFixture after = f;
  RunReferences(&after);
  ASSERT_NE(after.direct.labels, f.direct.labels)
      << "the rewrite must change the clustering for this test to bite";
  auto next = CkMeans::ClusterFile(f.path, f.k, f.seed, CkMeans::Params(),
                                   EngineWith(2, 2048), sidecar);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ExpectMatchesReferences(next.ValueOrDie(), after, "after rewrite");
  RemoveFixture(f, sidecar);
}

// ---------------------------------------------------------------------------
// Property: the accounting identity evals + skipped == sweeps * n * k on
// seeded random instances, converged and capped alike, through RunOnMoments
// and through ClusterFile's mapped branch.

TEST(CkmeansProperty, AccountingIdentityOnRandomInstances) {
  common::Rng draw(20261017);
  const std::string path = TempPath("ckmeans_property.ubin");
  const std::string sidecar = TempPath("ckmeans_property.umom");
  int converged = 0, capped = 0;
  for (int trial = 0; trial < 50; ++trial) {
    data::SyntheticGenParams gp;
    gp.classes = 1 + static_cast<int>(draw.Index(6));
    gp.n = gp.classes + 20 + draw.Index(280);
    gp.m = 1 + draw.Index(8);
    gp.seed = 1 + draw.Index(1000000);
    const int k = 1 + static_cast<int>(draw.Index(8));
    const uint64_t seed = draw.Index(1000000);
    CkMeans::Params p;
    p.max_iters = 1 + static_cast<int>(draw.Index(12));
    const std::string trace =
        "trial=" + std::to_string(trial) + " n=" + std::to_string(gp.n) +
        " m=" + std::to_string(gp.m) + " k=" + std::to_string(k) +
        " max_iters=" + std::to_string(p.max_iters);
    ASSERT_TRUE(data::WriteSyntheticDataset(gp, path, "property").ok())
        << trace;

    auto store = io::StreamMomentStoreFromFile(path);
    ASSERT_TRUE(store.ok()) << trace;
    const auto out = CkMeans::RunOnMoments(store.ValueOrDie()->view(), k,
                                           seed, p, EngineWith(2));
    EXPECT_EQ(out.converged, out.iterations < p.max_iters) << trace;
    const int sweeps = out.iterations + (out.converged ? 1 : 0);
    EXPECT_EQ(out.center_distance_evals + out.bounds_skipped,
              static_cast<int64_t>(sweeps) * static_cast<int64_t>(gp.n) * k)
        << trace;
    ++(out.converged ? converged : capped);

    ASSERT_FALSE(io::ResidentMomentsFit(gp.n, gp.m, EngineWith(2, 1)));
    std::remove(sidecar.c_str());
    auto file = CkMeans::ClusterFile(path, k, seed, p, EngineWith(2, 1),
                                     sidecar);
    ASSERT_TRUE(file.ok()) << trace << ": " << file.status().ToString();
    const ClusteringResult& r = file.ValueOrDie();
    EXPECT_EQ(r.iterations, out.iterations) << trace;
    EXPECT_EQ(r.center_distance_evals + r.bounds_skipped,
              static_cast<int64_t>(sweeps) * static_cast<int64_t>(gp.n) * k)
        << trace;
    EXPECT_EQ(r.center_distance_evals, out.center_distance_evals) << trace;
  }
  // The draws must exercise both stop rules.
  EXPECT_GT(converged, 0);
  EXPECT_GT(capped, 0);
  std::remove(path.c_str());
  std::remove(sidecar.c_str());
}

}  // namespace
}  // namespace uclust::clustering
