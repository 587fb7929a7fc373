// Workload-aware PairwiseStore access contract: member x member blocks
// serve the same bits the dense table holds, UK-medoids on the recomputing
// backend is clustering-identical to the dense backend under the legacy
// full-sweep evaluation floor, and the bound-pruned pair sweep skips only
// pairs whose distance probability is provably 0.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "clustering/fdbscan.h"
#include "clustering/pairwise_store.h"
#include "clustering/pruning.h"
#include "clustering/ukmedoids.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "uncertain/sample_store.h"
#include "uncertain/uniform_pdf.h"

namespace uclust::clustering {
namespace {

data::UncertainDataset TestDataset(std::size_t n, std::size_t m, int classes,
                                   uint64_t seed,
                                   double min_separation = 0.25) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  params.min_separation = min_separation;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "tile-policies");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

// An engine whose memory budget is `bytes` (0 = unlimited: a dense store).
engine::Engine BudgetEngine(std::size_t bytes) {
  engine::EngineConfig config;
  config.memory_budget_bytes = bytes;
  return engine::Engine(config);
}

// The full n x n table, read back row by row from a dense store.
std::vector<double> DenseTable(PairwiseStore* dense) {
  std::vector<double> table;
  std::vector<double> scratch;
  for (std::size_t i = 0; i < dense->size(); ++i) {
    const std::span<const double> row = dense->Row(i, &scratch);
    table.insert(table.end(), row.begin(), row.end());
  }
  return table;
}

std::vector<double> CollectSymmetricBlock(PairwiseStore* store,
                                          std::span<const std::size_t> ids) {
  std::vector<double> block(ids.size() * ids.size(), -1.0);
  store->VisitSymmetricBlock(
      ids, [&](std::size_t a, std::span<const double> row) {
        for (std::size_t b = 0; b < row.size(); ++b) {
          block[a * ids.size() + b] = row[b];
        }
      });
  return block;
}

TEST(TilePolicies, VisitSymmetricBlockMatchesDenseReference) {
  const auto ds = TestDataset(57, 3, 3, 101);
  const std::size_t n = ds.size();
  const engine::Engine eng;
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::ClosedFormED2(ds.objects());
  PairwiseStore reference(eng, kernel);
  const std::vector<double> table = DenseTable(&reference);

  // Every other object — an id set crossing several row blocks.
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < n; i += 2) ids.push_back(i);
  const std::size_t s = ids.size();
  const int64_t ss = static_cast<int64_t>(s);

  // Dense, where the requested rows materialize the table and the block
  // reads it back; tiled with 7-row blocks (28 rows of budget), where the
  // block is computed in one symmetric pass; tiled with one-row blocks
  // (1 byte), where the block streams one-row stripes.
  for (const std::size_t budget : {std::size_t{0}, 28 * n * sizeof(double),
                                   std::size_t{1}}) {
    PairwiseStore store(BudgetEngine(budget), kernel);
    std::vector<double> seeded;
    for (const std::size_t i : {ids[0], ids[1], ids[3]}) {
      store.Row(i, &seeded);
    }
    if (budget > 1) {
      ASSERT_EQ(store.options().tile_rows, 7u);
    }
    const int64_t evals = store.evaluations();
    const int64_t hits = store.warm_hits();
    const int64_t misses = store.warm_misses();

    const std::vector<double> block = CollectSymmetricBlock(&store, ids);
    for (std::size_t a = 0; a < s; ++a) {
      for (std::size_t b = 0; b < s; ++b) {
        ASSERT_EQ(block[a * s + b], table[ids[a] * n + ids[b]])
            << "budget=" << budget << " " << a << "," << b;
      }
    }
    // A table read costs no evaluation and counts one hit per row; a
    // computed row counts one miss.
    const int64_t want_evals = budget == 0   ? 0
                               : budget == 1 ? ss * (ss - 1)
                                             : ss * (ss - 1) / 2;
    EXPECT_EQ(store.evaluations() - evals, want_evals) << "budget=" << budget;
    EXPECT_EQ(store.warm_hits() - hits, budget == 0 ? ss : 0)
        << "budget=" << budget;
    EXPECT_EQ(store.warm_misses() - misses, budget == 0 ? 0 : ss)
        << "budget=" << budget;
  }
}

// A budget too small to hold the whole |ids| x |ids| slab must stream
// bounded row stripes — same values, scratch within the one-block-row
// floor, never an O(|ids|^2) allocation inside the store.
TEST(TilePolicies, VisitSymmetricBlockStripesOversizedBlocks) {
  const auto ds = TestDataset(90, 2, 2, 131);
  const std::size_t n = ds.size();
  const engine::Engine eng;
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::ClosedFormED2(ds.objects());
  PairwiseStore reference(eng, kernel);
  const std::vector<double> table = DenseTable(&reference);

  std::vector<std::size_t> ids(n);  // the worst case: one giant cluster
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;

  // Budget of ~3 block rows: far below the n x n slab, so the visit must
  // stripe.
  const std::size_t budget = 3 * n * sizeof(double);
  PairwiseStore store(BudgetEngine(budget), kernel);
  ASSERT_EQ(store.backend(), PairwiseBackend::kTiled);
  const std::vector<double> block = CollectSymmetricBlock(&store, ids);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      ASSERT_EQ(block[a * n + b], table[a * n + b]) << a << "," << b;
    }
  }
  // Scratch stayed within the budget (stripes, not the whole slab).
  EXPECT_LE(store.table_bytes_peak(), budget);
}

// UK-medoids on the recomputing backend (member-block swap sweep, indexed
// assignment), with multi-row and one-row blocks, must reproduce
// the dense-backend clustering bit-for-bit, while evaluating fewer pairs
// than the full-row sweep it replaced would have: iterations * n * (n-1),
// one recomputed row per object per swap sweep.
TEST(TilePolicies, UkMedoidsRecomputeBackendsMatchDense) {
  const auto ds = TestDataset(120, 3, 3, 103);
  const std::size_t n = ds.size();
  const std::size_t row_bytes = n * sizeof(double);

  UkMedoids::Params mp;
  mp.use_closed_form = true;
  const auto run = [&](std::size_t budget) {
    engine::EngineConfig config;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    UkMedoids algo(mp);
    algo.set_engine(engine::Engine(config));
    return algo.Cluster(ds, 3, 7);
  };

  const ClusteringResult dense = run(0);
  ASSERT_EQ(dense.pairwise_backend, "dense");
  for (const std::size_t budget : {12 * row_bytes, std::size_t{1}}) {
    const ClusteringResult out = run(budget);
    EXPECT_EQ(out.pairwise_backend, "tiled");
    EXPECT_EQ(out.labels, dense.labels) << "budget=" << budget;
    EXPECT_EQ(out.iterations, dense.iterations) << "budget=" << budget;
    EXPECT_EQ(out.objective, dense.objective) << "budget=" << budget;
    const int64_t full_sweep_floor = static_cast<int64_t>(out.iterations) *
                                     static_cast<int64_t>(n) *
                                     static_cast<int64_t>(n - 1);
    EXPECT_LT(out.pair_evaluations, full_sweep_floor) << "budget=" << budget;
  }
}

// The row pass keeps exactly the columns j > i that ProvablyBeyond does not
// rule out, at every eps.
void ExpectRowPassMatchesPairTest(const PairwiseBoundIndex& bounds,
                                  double eps) {
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    std::vector<std::size_t> want;
    for (std::size_t j = i + 1; j < bounds.size(); ++j) {
      if (!bounds.ProvablyBeyond(i, j, eps)) want.push_back(j);
    }
    std::vector<std::size_t> kept(bounds.size() - i - 1);
    kept.resize(bounds.KeptAbove(i, eps, kept));
    EXPECT_EQ(kept, want) << "i=" << i << " eps=" << eps;
  }
}

// Candidate-driven sweep contract on a separable dataset, on every backend:
// the bound pass's kept columns serve the same per-pair values as the
// unpruned sweep, with strictly fewer kernel evaluations, and every pair
// accounted as either evaluated or pruned.
TEST(TilePolicies, BoundSkipServesIdenticalPairsWithFewerEvaluations) {
  const auto ds = TestDataset(150, 2, 3, 113, /*min_separation=*/0.45);
  const std::size_t n = ds.size();
  const engine::Engine eng;
  const uncertain::ResidentSampleStore samples(ds.objects(), 24, 0x5eed, eng);
  const double eps = 0.08;  // well below the class separation
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::DistanceProbability(samples.view(), eps);
  const PairwiseBoundIndex bounds(ds.objects());
  std::vector<std::vector<std::size_t>> kept(n);
  for (std::size_t i = 0; i < n; ++i) {
    kept[i].resize(n - i - 1);
    kept[i].resize(bounds.KeptAbove(i, eps, kept[i]));
  }
  const auto sweep = [&](PairwiseStore* store, bool prune) {
    std::vector<double> upper(n * n, -1.0);
    const auto fn = [&](std::size_t i, std::span<const double> tail) {
      for (std::size_t t = 0; t < tail.size(); ++t) {
        upper[i * n + i + 1 + t] = tail[t];
      }
    };
    if (prune) {
      store->VisitUpperTriangleCandidates(fn, [&](std::size_t i) {
        return std::span<const std::size_t>(kept[i]);
      });
    } else {
      store->VisitUpperTriangle(fn);
    }
    return upper;
  };

  const int64_t all_pairs =
      static_cast<int64_t>(n) * static_cast<int64_t>(n - 1) / 2;
  // Dense; tiled with multi-row blocks (40 rows of budget); tiled with
  // one-row blocks (1 byte).
  for (const std::size_t budget :
       {std::size_t{0}, 40 * n * sizeof(double), std::size_t{1}}) {
    const engine::Engine budget_eng = BudgetEngine(budget);
    PairwiseStore plain(budget_eng, kernel);
    PairwiseStore pruned(budget_eng, kernel);
    const std::string where = "budget=" + std::to_string(budget);
    EXPECT_EQ(plain.options().tile_rows > 1, budget != 1) << where;
    EXPECT_EQ(sweep(&pruned, true), sweep(&plain, false)) << where;
    EXPECT_EQ(plain.evaluations(), all_pairs) << where;
    EXPECT_EQ(plain.pruned_pairs(), 0);
    EXPECT_GT(pruned.pruned_pairs(), 0) << where;
    EXPECT_LT(pruned.evaluations(), plain.evaluations()) << where;
    EXPECT_EQ(pruned.evaluations() + pruned.pruned_pairs(), all_pairs) << where;
  }
}

// Zero-radius (Dirac) and degenerate-box pairs: the bound must be the EXACT
// squared center distance — the sqrt/re-square round trip of the radius
// bound can overshoot by ulps and would turn a valid lower bound into an
// invalid one at the eps boundary.
TEST(TilePolicies, PairwiseBoundIndexExactOnZeroRadiusPairs) {
  // Coordinates chosen so sqrt(d2) is irrational: the round trip through
  // sqrt is where the historical overshoot lived.
  const std::vector<std::vector<double>> points = {
      {0.1, 0.2}, {0.4, 0.7}, {-0.3, 0.55}, {0.1, 0.2}};
  std::vector<uncertain::UncertainObject> objects;
  for (const auto& p : points) {
    objects.push_back(uncertain::UncertainObject::Deterministic(p));
  }
  const PairwiseBoundIndex bounds(objects);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (std::size_t j = i + 1; j < objects.size(); ++j) {
      double d2 = 0.0;
      for (std::size_t m = 0; m < points[i].size(); ++m) {
        const double diff = points[i][m] - points[j][m];
        d2 += diff * diff;
      }
      EXPECT_EQ(bounds.MinSquaredDistance(i, j), d2) << i << "," << j;
      // ProvablyBeyond decides on the exact center distance: beyond for any
      // eps below the true distance, not beyond at or above it.
      const double dist = std::sqrt(d2);
      if (d2 > 0.0) {
        EXPECT_TRUE(bounds.ProvablyBeyond(i, j, dist * 0.999999));
      }
      EXPECT_FALSE(bounds.ProvablyBeyond(i, j, dist));
      EXPECT_FALSE(bounds.ProvablyBeyond(i, j, dist * 1.000001));
    }
  }
  // The coincident Dirac pair: exact zero, never provably beyond.
  EXPECT_EQ(bounds.MinSquaredDistance(0, 3), 0.0);
  EXPECT_FALSE(bounds.ProvablyBeyond(0, 3, 0.0));
  // The row pass decides like the pair test, also at eps equal to an exact
  // pair distance and just around it.
  for (const double eps : {0.0, std::sqrt(bounds.MinSquaredDistance(0, 1)),
                           std::sqrt(bounds.MinSquaredDistance(1, 2)) *
                               0.999999,
                           std::sqrt(bounds.MinSquaredDistance(1, 2)), 0.5}) {
    ExpectRowPassMatchesPairTest(bounds, eps);
  }
}

// A mixed pair (one degenerate box, one fat box) must stay a valid lower
// bound and agree with the exact box-box separation.
TEST(TilePolicies, PairwiseBoundIndexMixedDegeneratePairs) {
  std::vector<uncertain::UncertainObject> objects;
  objects.push_back(
      uncertain::UncertainObject::Deterministic(std::vector<double>{0.0, 0.0}));
  std::vector<uncertain::PdfPtr> dims;
  dims.push_back(uncertain::UniformPdf::Centered(1.0, 0.25));
  dims.push_back(uncertain::UniformPdf::Centered(0.0, 0.25));
  objects.emplace_back(std::move(dims));
  const PairwiseBoundIndex bounds(objects);
  const double exact =
      objects[0].region().MinSquaredDistanceTo(objects[1].region());
  const double lb = bounds.MinSquaredDistance(0, 1);
  EXPECT_LE(lb, exact);   // a lower bound on any realization distance
  EXPECT_GE(lb, exact * (1.0 - 1e-12));  // and a tight one: the box bound
  // Inside overlap there is nothing to prove.
  EXPECT_FALSE(bounds.ProvablyBeyond(0, 1, std::sqrt(exact) * 1.01));
  EXPECT_TRUE(bounds.ProvablyBeyond(0, 1, std::sqrt(exact) * 0.9));
  for (const double eps : {std::sqrt(exact) * 0.9, std::sqrt(exact),
                           std::sqrt(exact) * 1.01}) {
    ExpectRowPassMatchesPairTest(bounds, eps);
  }
}

// The row pass against the pair test on a fat-region dataset, at eps set to
// the lower bound and the exact box separation of some of its pairs, where
// the slacked threshold sits right at a computed bound.
TEST(TilePolicies, BoundRowPassMatchesPairTest) {
  const auto ds = TestDataset(60, 3, 3, 119);
  const PairwiseBoundIndex bounds(ds.objects());
  std::vector<double> eps_values = {0.0, 0.05, 0.2, 1.0, 10.0};
  for (std::size_t i = 0; i < ds.size(); i += 7) {
    const std::size_t j = (i * 13 + 5) % ds.size();
    if (i == j) continue;
    eps_values.push_back(std::sqrt(bounds.MinSquaredDistance(i, j)));
    eps_values.push_back(std::sqrt(
        ds.object(i).region().MinSquaredDistanceTo(ds.object(j).region())));
  }
  for (const double eps : eps_values) ExpectRowPassMatchesPairTest(bounds, eps);
}

// FDBSCAN's two eps-sweeps evaluate the same pairs: the R-tree candidates
// are exactly the pairs the all-pairs bound keeps. Forced either way, on the
// dense and the tiled backend at any thread count, the labels, noise and
// every pair counter match, every pair is accounted for, and only the
// bound-test cost moves. The index counters are pure functions of the data.
TEST(TilePolicies, FdbscanForcedSweepsCounterIdentical) {
  const auto ds = TestDataset(150, 2, 3, 113, /*min_separation=*/0.45);
  const std::size_t n = ds.size();

  Fdbscan::Params fp;
  fp.eps = 0.08;
  const auto run = [&](std::size_t budget, int threads, Fdbscan::Sweep sweep) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    Fdbscan algo(fp);
    algo.set_engine(engine::Engine(config));
    return algo.Cluster(ds, 3, 17, sweep);
  };

  const int64_t all_pairs =
      static_cast<int64_t>(n) * static_cast<int64_t>(n - 1) / 2;
  const ClusteringResult want = run(0, 1, Fdbscan::Sweep::kAllPairs);
  const ClusteringResult indexed_serial = run(0, 1, Fdbscan::Sweep::kIndexed);
  for (const std::size_t budget : {std::size_t{0}, 10 * n * sizeof(double)}) {
    for (int threads : {1, 2, 8}) {
      const std::string where = "budget=" + std::to_string(budget) +
                                " threads=" + std::to_string(threads);
      const ClusteringResult all_run =
          run(budget, threads, Fdbscan::Sweep::kAllPairs);
      const ClusteringResult indexed =
          run(budget, threads, Fdbscan::Sweep::kIndexed);
      for (const ClusteringResult* out : {&all_run, &indexed}) {
        EXPECT_EQ(out->labels, want.labels) << where;
        EXPECT_EQ(out->noise_objects, want.noise_objects) << where;
        EXPECT_EQ(out->pair_evaluations, want.pair_evaluations) << where;
        EXPECT_EQ(out->pairs_pruned, want.pairs_pruned) << where;
        EXPECT_EQ(out->ed_evaluations, want.ed_evaluations) << where;
        EXPECT_EQ(out->pair_evaluations + out->pairs_pruned, all_pairs)
            << where;
      }
      EXPECT_EQ(all_run.index_candidates, 0) << where;
      EXPECT_EQ(all_run.index_bound_tests, 0) << where;
      EXPECT_EQ(indexed.index_candidates + indexed.pairs_pruned_by_index,
                all_pairs)
          << where;
      EXPECT_EQ(indexed.index_candidates, indexed_serial.index_candidates)
          << where;
      EXPECT_EQ(indexed.index_bound_tests, indexed_serial.index_bound_tests)
          << where;
    }
  }
  // The index did real narrowing on this separable dataset. (The bound-cost
  // advantage over the n*(n-1)/2 floor only materializes at scale —
  // bench_pairwise_smoke gates it at CI size.)
  EXPECT_GT(want.pairs_pruned, 0);
  EXPECT_GT(indexed_serial.pairs_pruned_by_index, 0);
  EXPECT_GT(indexed_serial.index_bound_tests, 0);

  // With automatic eps the two sweeps agree as well.
  fp.eps = 0.0;
  const ClusteringResult auto_want = run(0, 1, Fdbscan::Sweep::kAllPairs);
  for (int threads : {1, 8}) {
    const ClusteringResult indexed =
        run(10 * n * sizeof(double), threads, Fdbscan::Sweep::kIndexed);
    EXPECT_EQ(indexed.labels, auto_want.labels) << threads;
    EXPECT_EQ(indexed.pair_evaluations, auto_want.pair_evaluations) << threads;
    EXPECT_EQ(indexed.pairs_pruned, auto_want.pairs_pruned) << threads;
  }
}

// The selectivity probe sends a selective eps to the R-tree and a broad one
// to the all-pairs sweep, and an unforced run is exactly the forced run of
// the sweep the probe picked.
TEST(TilePolicies, FdbscanProbePicksSweepBySelectivity) {
  // Broad 3-D clusters with small uncertainty regions: the regime where a
  // small eps is selective (the bench_pairwise_smoke INDEX set, scaled down).
  data::MixtureParams mp;
  mp.n = 600;
  mp.dims = 3;
  mp.classes = 8;
  mp.sigma_min = 0.15;
  mp.sigma_max = 0.25;
  mp.min_separation = 0.4;
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  up.min_scale_frac = 0.002;
  up.max_scale_frac = 0.01;
  const auto ds =
      data::UncertaintyModel(data::MakeGaussianMixture(mp, 131, "probe"), up,
                             132)
          .Uncertain();
  const PairwiseBoundIndex bounds(ds.objects());
  const struct {
    double eps;
    Fdbscan::Sweep want;
  } cases[] = {{0.02, Fdbscan::Sweep::kIndexed},
               {0.3, Fdbscan::Sweep::kAllPairs}};
  for (const auto& c : cases) {
    EXPECT_EQ(Fdbscan::ChooseSweep(bounds, c.eps), c.want) << c.eps;
    Fdbscan::Params fp;
    fp.eps = c.eps;
    Fdbscan algo(fp);
    const ClusteringResult probed = algo.Cluster(ds, 3, 5);
    const ClusteringResult forced = algo.Cluster(ds, 3, 5, c.want);
    EXPECT_EQ(probed.labels, forced.labels) << c.eps;
    EXPECT_EQ(probed.pair_evaluations, forced.pair_evaluations) << c.eps;
    EXPECT_EQ(probed.pairs_pruned, forced.pairs_pruned) << c.eps;
    EXPECT_EQ(probed.index_candidates, forced.index_candidates) << c.eps;
    EXPECT_EQ(probed.index_bound_tests, forced.index_bound_tests) << c.eps;
    EXPECT_EQ(probed.index_bound_tests > 0,
              c.want == Fdbscan::Sweep::kIndexed)
        << c.eps;
  }
  // Nothing to probe below two objects.
  const PairwiseBoundIndex one(std::span(ds.objects()).first(1));
  EXPECT_EQ(Fdbscan::ChooseSweep(one, 0.02), Fdbscan::Sweep::kAllPairs);
}

// The bound the pruned sweep consults must hold for every realization pair
// the distance-probability kernel integrates over.
TEST(TilePolicies, PairwiseBoundIndexLowerBoundsSampleDistances) {
  const auto ds = TestDataset(40, 3, 3, 127);
  const engine::Engine eng;
  const uncertain::ResidentSampleStore store(ds.objects(), 16, 0x5eed, eng);
  const uncertain::SampleView cache = store.view();
  const PairwiseBoundIndex bounds(ds.objects());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t j = i + 1; j < ds.size(); ++j) {
      const double lb = bounds.MinSquaredDistance(i, j);
      for (int s = 0; s < cache.samples_per_object(); ++s) {
        double d2 = 0.0;
        const auto a = cache.SampleOf(i, s);
        const auto b = cache.SampleOf(j, s);
        for (std::size_t m = 0; m < a.size(); ++m) {
          const double diff = a[m] - b[m];
          d2 += diff * diff;
        }
        ASSERT_LE(lb, d2 * (1.0 + 1e-12)) << i << "," << j << " s=" << s;
      }
    }
  }
}

}  // namespace
}  // namespace uclust::clustering
