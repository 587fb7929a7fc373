// PairwiseStore backend contract: the dense table and the tiled store, with
// multi-row or one-row blocks, must serve bit-identical ED^ values, every
// pairwise consumer must produce identical clusterings under any memory
// budget, and peak table memory must respect the configured budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "clustering/foptics.h"
#include "clustering/fdbscan.h"
#include "clustering/pairwise_store.h"
#include "clustering/simd/simd.h"
#include "clustering/uahc.h"
#include "clustering/ukmedoids.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/parallel_for.h"
#include "io/sample_file.h"
#include "uncertain/expected_distance.h"
#include "uncertain/sample_store.h"

namespace uclust::clustering {
namespace {

data::UncertainDataset TestDataset(std::size_t n, std::size_t m, int classes,
                                   uint64_t seed) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "pairwise");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

// An engine whose memory budget is `rows` table rows of an n-object table.
engine::Engine RowsBudget(std::size_t n, std::size_t rows) {
  engine::EngineConfig config;
  config.memory_budget_bytes = rows * n * sizeof(double);
  return engine::Engine(config);
}

// An engine with a 1-byte budget: a tiled store with one-row blocks.
engine::Engine OneByteBudget() {
  engine::EngineConfig config;
  config.memory_budget_bytes = 1;
  return engine::Engine(config);
}

// Row i of the store, copied out of the span Row returns.
std::vector<double> RowCopy(PairwiseStore* store, std::size_t i) {
  std::vector<double> scratch;
  const std::span<const double> row = store->Row(i, &scratch);
  return {row.begin(), row.end()};
}

// The full n x n table as served by Row over every row.
std::vector<double> AllRows(PairwiseStore* store) {
  std::vector<double> table;
  for (std::size_t i = 0; i < store->size(); ++i) {
    const std::vector<double> row = RowCopy(store, i);
    table.insert(table.end(), row.begin(), row.end());
  }
  return table;
}

// Test-local oracle for one pair of `kernel`: the closed form, or the
// scalar table's single-pair realization loops over the two objects'
// ObjectSamples rows, in the canonical (lo, hi) operand order.
double PairOracle(const kernels::PairwiseKernel& kernel, std::size_t i,
                  std::size_t j) {
  using Kind = kernels::PairwiseKernel::Kind;
  const std::size_t lo = std::min(i, j);
  const std::size_t hi = std::max(i, j);
  if (kernel.kind == Kind::kClosedFormED2) {
    return uncertain::ExpectedSquaredDistance(kernel.objects[lo],
                                              kernel.objects[hi]);
  }
  const simd::KernelTable& scalar = *simd::TableFor(simd::Isa::kScalar);
  const uncertain::SampleView& view = kernel.samples;
  const int s_count = view.samples_per_object();
  const std::size_t s = static_cast<std::size_t>(s_count);
  const std::size_t m = view.dims();
  const double* a = view.ObjectSamples(lo).data();
  const double* b = view.ObjectSamples(hi).data();
  if (kernel.kind == Kind::kDistanceProbability) {
    const std::size_t hits =
        scalar.realizations_within(a, b, s, m, kernel.eps * kernel.eps);
    return static_cast<double>(hits) / s_count;
  }
  const double ed = scalar.realization_squared_sum(a, b, s, m, m) / s_count;
  return kernel.kind == Kind::kSampleED ? std::sqrt(ed) : ed;
}

TEST(PairwiseStore, BackendsServeBitIdenticalValues) {
  const auto ds = TestDataset(61, 3, 3, 11);
  const std::size_t n = ds.size();
  const engine::Engine eng;
  const uncertain::ResidentSampleStore store(ds.objects(), 12, 0x5eed, eng);
  const uncertain::SampleView cache = store.view();
  const kernels::PairwiseKernel kernels_under_test[] = {
      kernels::PairwiseKernel::ClosedFormED2(ds.objects()),
      kernels::PairwiseKernel::SampleED2(cache),
      kernels::PairwiseKernel::SampleED(cache),
      kernels::PairwiseKernel::DistanceProbability(cache, 0.3),
  };
  // 38 rows: 9-row blocks; 1 byte: one-row blocks.
  const engine::Engine tiled_eng = RowsBudget(n, 38);
  const engine::Engine row_eng = OneByteBudget();
  for (const auto& kernel : kernels_under_test) {
    PairwiseStore dense(eng, kernel);
    PairwiseStore tiled(tiled_eng, kernel);
    PairwiseStore fly(row_eng, kernel);
    ASSERT_EQ(dense.backend(), PairwiseBackend::kDense);
    ASSERT_EQ(tiled.backend(), PairwiseBackend::kTiled);
    ASSERT_EQ(tiled.options().tile_rows, 9u);
    ASSERT_EQ(fly.backend(), PairwiseBackend::kTiled);
    ASSERT_EQ(fly.options().tile_rows, 1u);
    // Row by row against the oracle on every store, and the whole table
    // from fresh recomputing stores against the dense one.
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double> d_row = RowCopy(&dense, i);
      const std::vector<double> t_row = RowCopy(&tiled, i);
      const std::vector<double> f_row = RowCopy(&fly, i);
      for (std::size_t j = 0; j < n; ++j) {
        const double want = i == j ? 0.0 : PairOracle(kernel, i, j);
        ASSERT_EQ(d_row[j], want) << i << "," << j;
        ASSERT_EQ(t_row[j], want) << i << "," << j;
        ASSERT_EQ(f_row[j], want) << i << "," << j;
      }
    }
    PairwiseStore tiled_batch(tiled_eng, kernel);
    PairwiseStore fly_batch(row_eng, kernel);
    const std::vector<double> want = AllRows(&dense);
    ASSERT_EQ(AllRows(&tiled_batch), want);
    ASSERT_EQ(AllRows(&fly_batch), want);
  }
}

TEST(PairwiseStore, SweepsMatchRandomAccess) {
  const auto ds = TestDataset(40, 2, 2, 13);
  const std::size_t n = ds.size();
  const engine::Engine eng;
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::ClosedFormED2(ds.objects());
  PairwiseStore reference(eng, kernel);
  const std::vector<double> want = AllRows(&reference);
  // Dense; tiled with 7-row blocks (28 rows of budget); tiled with one-row
  // blocks (1 byte).
  for (const engine::Engine& budget_eng :
       {eng, RowsBudget(n, 28), OneByteBudget()}) {
    PairwiseStore store(budget_eng, kernel);
    const std::string name =
        PairwiseBackendName(store.backend()) + " tile_rows=" +
        std::to_string(store.options().tile_rows);
    ASSERT_EQ(store.options().tile_rows,
              budget_eng.memory_budget_bytes() == 0 ? n
              : budget_eng.memory_budget_bytes() == 1 ? 1u
                                                      : 7u);
    // Evaluation counts from a cold store: a recomputing backend spends
    // n - 1 on one gathered row, n * (n - 1) on gathering every row and
    // n * (n - 1) / 2 on an upper sweep; the dense table is filled once.
    const bool dense = store.backend() == PairwiseBackend::kDense;
    const int64_t nn = static_cast<int64_t>(n);
    const int64_t half = nn * (nn - 1) / 2;
    const std::vector<double> cold_row = RowCopy(&store, 1);
    EXPECT_EQ(store.evaluations(), dense ? half : nn - 1) << name;
    int64_t before = store.evaluations();
    const std::vector<double> from_rows = AllRows(&store);
    EXPECT_EQ(store.evaluations() - before, dense ? 0 : 2 * half) << name;
    before = store.evaluations();
    std::vector<double> from_upper(n * n, 0.0);
    store.VisitUpperTriangle([&](std::size_t i,
                                 std::span<const double> tail) {
      for (std::size_t t = 0; t < tail.size(); ++t) {
        from_upper[i * n + i + 1 + t] = tail[t];
        from_upper[(i + 1 + t) * n + i] = tail[t];
      }
    });
    EXPECT_EQ(store.evaluations() - before, dense ? 0 : half) << name;
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(cold_row[j], want[n + j]) << name;
    }
    std::vector<std::size_t> some_rows = {0, n / 2, n - 1, 3};
    std::vector<double> gathered;
    for (const std::size_t i : some_rows) {
      const std::vector<double> row = RowCopy(&store, i);
      gathered.insert(gathered.end(), row.begin(), row.end());
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(from_rows[i * n + j], want[i * n + j])
            << name << " " << i << "," << j;
        ASSERT_EQ(from_upper[i * n + j], want[i * n + j])
            << name << " " << i << "," << j;
      }
    }
    for (std::size_t r = 0; r < some_rows.size(); ++r) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(gathered[r * n + j], want[some_rows[r] * n + j]);
      }
    }
  }
}

TEST(PairwiseStore, BudgetSelectsBackendAndBoundsPeak) {
  const std::size_t n = 128;
  const std::size_t row_bytes = n * sizeof(double);
  EXPECT_EQ(PairwiseStoreOptions::FromBudget(0, n).backend,
            PairwiseBackend::kDense);
  EXPECT_EQ(PairwiseStoreOptions::FromBudget(n * n * sizeof(double), n)
                .backend,
            PairwiseBackend::kDense);
  const PairwiseStoreOptions tiled =
      PairwiseStoreOptions::FromBudget(16 * row_bytes, n);
  EXPECT_EQ(tiled.backend, PairwiseBackend::kTiled);
  // A streaming block is a quarter of the budget.
  EXPECT_EQ(tiled.tile_rows, 4u);
  // Below eight rows the store is still tiled, with one-row blocks.
  for (const std::size_t tiny : {std::size_t{1}, 8 * row_bytes - 1}) {
    const PairwiseStoreOptions o = PairwiseStoreOptions::FromBudget(tiny, n);
    EXPECT_EQ(o.backend, PairwiseBackend::kTiled) << tiny;
    EXPECT_EQ(o.tile_rows, 1u) << tiny;
  }

  // A tiled store driven hard stays under its budget.
  const auto ds = TestDataset(n, 2, 2, 19);
  PairwiseStore store(RowsBudget(n, 16), kernels::PairwiseKernel::ClosedFormED2(
                                             ds.objects()));
  ASSERT_EQ(store.options().tile_rows, tiled.tile_rows);
  std::vector<double> row;
  for (std::size_t i = 0; i < n; i += 3) store.Row(i, &row);
  for (std::size_t i = 0; i < n; ++i) store.Row(i, &row);
  store.VisitUpperTriangle([](std::size_t, std::span<const double>) {});
  EXPECT_LE(store.table_bytes_peak(), 16 * row_bytes);
}

// ScoreRow, the store's one pair-scoring entry, gives Row's bits for any
// column list: partners below and above the row, repeats, the row itself
// (exactly 0, like the table diagonal), and the empty list. A tiled store
// counts one evaluation per off-diagonal pair scored; a materialized table
// counts none. The same holds when four threads score rows concurrently
// through the shared counter.
TEST(PairwiseStore, ScoreRowMatchesRowAndCountsEveryEvaluation) {
  const auto ds = TestDataset(61, 3, 3, 37);
  const std::size_t n = ds.size();
  const uncertain::ResidentSampleStore samples(ds.objects(), 12, 0x5eed);
  const kernels::PairwiseKernel kinds[] = {
      kernels::PairwiseKernel::ClosedFormED2(ds.objects()),
      kernels::PairwiseKernel::SampleED2(samples.view()),
  };
  common::Rng rng(0xBA7C);
  std::vector<std::size_t> cols;  // 0..n-1 twice, shuffled: 2n columns
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t j = 0; j < n; ++j) cols.push_back(j);
  }
  for (std::size_t t = cols.size() - 1; t > 0; --t) {
    const std::size_t u = static_cast<std::size_t>(rng.Uniform(0.0, 1.0) *
                                                   (t + 1)) % (t + 1);
    std::swap(cols[t], cols[u]);
  }
  const std::vector<std::vector<std::size_t>> lists = {
      cols, {n - 1, 0, 30, 30, 2}, {}};

  // Dense (warmed); tiled with 7-row blocks (28 rows); tiled with one-row
  // blocks (1 byte). Each at one thread and at four.
  for (const std::size_t budget : {std::size_t{0}, 28 * n * sizeof(double),
                                   std::size_t{1}}) {
    for (const int threads : {1, 4}) {
      engine::EngineConfig config;
      config.num_threads = threads;
      config.block_size = 4;
      config.memory_budget_bytes = budget;
      const engine::Engine eng(config);
      for (const auto& kernel : kinds) {
        PairwiseStore store(eng, kernel);
        store.Warm();
        const std::string where =
            "budget=" + std::to_string(budget) +
            " threads=" + std::to_string(threads) +
            " kind=" + std::to_string(static_cast<int>(kernel.kind));
        ASSERT_EQ(store.materialized(), budget == 0) << where;
        const std::vector<double> table = AllRows(&store);
        // Scores every row against `list`: (row, slot) -> value.
        const auto score = [&](const std::vector<std::size_t>& list) {
          std::vector<double> got(n * list.size(), -1.0);
          engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
            for (std::size_t i = r.begin; i < r.end; ++i) {
              store.ScoreRow(i, list, got.data() + i * list.size());
            }
          });
          return got;
        };
        for (const std::vector<std::size_t>& list : lists) {
          const int64_t before = store.evaluations();
          const std::vector<double> got = score(list);
          int64_t off_diagonal = 0;
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t t = 0; t < list.size(); ++t) {
              const std::size_t j = list[t];
              const double want = j == i ? 0.0 : table[i * n + j];
              const double v = got[i * list.size() + t];
              ASSERT_EQ(0, std::memcmp(&want, &v, sizeof(double)))
                  << where << " i=" << i << " j=" << j;
              off_diagonal += j != i;
            }
          }
          EXPECT_EQ(store.evaluations() - before,
                    budget == 0 ? 0 : off_diagonal)
              << where;
        }
      }
    }
  }
}

// Counts the chunk lookups a chunked SampleView makes.
class CountingChunkSource final : public uncertain::SampleChunkSource {
 public:
  CountingChunkSource(const double* data, std::size_t chunk_doubles)
      : data_(data), chunk_doubles_(chunk_doubles) {}
  const double* ChunkData(std::size_t chunk) const override {
    ++lookups_;
    return data_ + chunk * chunk_doubles_;
  }
  int64_t lookups() const { return lookups_; }

 private:
  const double* data_;
  std::size_t chunk_doubles_;
  mutable int64_t lookups_ = 0;
};

// EvalRow on a chunked view looks the row's chunk up with the partners, not
// before them: one partner in another chunk costs two lookups (its chunk
// and the row's), and partners all in the row's chunk cost one.
TEST(PairwiseKernel, EvalRowLooksUpTheRowChunkWithItsPartners) {
  const auto ds = TestDataset(16, 2, 2, 41);
  const uncertain::ResidentSampleStore resident(ds.objects(), 4, 0x5eed);
  const uncertain::SampleView flat = resident.view();
  const std::size_t chunk_rows = 4;
  const std::size_t row_doubles =
      static_cast<std::size_t>(flat.samples_per_object()) * flat.dims();
  const CountingChunkSource source(flat.ObjectSamples(0).data(),
                                   chunk_rows * row_doubles);
  const uncertain::SampleView chunked(flat.size(), flat.samples_per_object(),
                                      flat.dims(), chunk_rows, &source);
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::SampleED2(chunked);
  const kernels::PairwiseKernel reference =
      kernels::PairwiseKernel::SampleED2(flat);
  const struct {
    std::size_t row;
    std::vector<std::size_t> cols;
    int64_t lookups;
  } cases[] = {
      {1, {9}, 2},           // one partner in another chunk
      {9, {1}, 2},           // the same pair from the other side
      {5, {4, 6, 7}, 1},     // all partners in the row's chunk (tail)
      {0, {1, 2, 3, 1}, 1},  // all in the row's chunk (one group)
      {0, {4, 5, 6, 7}, 2},  // one run in another chunk
  };
  for (const auto& c : cases) {
    std::vector<double> got(c.cols.size());
    std::vector<double> want(c.cols.size());
    const int64_t before = source.lookups();
    kernel.EvalRow(c.row, c.cols.data(), c.cols.size(), got.data());
    EXPECT_EQ(source.lookups() - before, c.lookups) << "row=" << c.row;
    reference.EvalRow(c.row, c.cols.data(), c.cols.size(), want.data());
    EXPECT_EQ(got, want) << "row=" << c.row;
  }
}

// EvalRow matches the test-local pair oracle, bit for bit, for every kernel
// kind on the resident and the mapped sample view, in the four-pair groups
// and in the count % 4 tail alike. The mapped sidecar has one object per
// chunk, so a full row crosses n - 1 > kSidecarWindowSlots chunks and the
// thread's window LRU evicts while the row is being scored; the row's own
// chunk must survive that. Partner lists: every length 0-9 with random columns
// (unsorted, below and above i, i itself allowed), and the full row
// ascending, descending and shuffled.
TEST(PairwiseKernel, EvalRowMatchesPairOracleOnResidentAndMappedViews) {
  const auto ds = TestDataset(61, 3, 3, 29);
  const std::size_t n = ds.size();
  const uncertain::ResidentSampleStore resident(ds.objects(), 24, 0x5eed);
  const std::string sidecar =
      ::testing::TempDir() + "pairwise_evalrow.usmp";
  ASSERT_TRUE(io::WriteSampleFile(resident.view(), sidecar, 0x5eed,
                                  /*chunk_rows=*/1)
                  .ok());
  auto opened = io::MappedSampleStore::Open(sidecar);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<io::MappedSampleStore> mapped =
      std::move(opened).ValueOrDie();
  const uncertain::SampleView mapped_view = mapped->view();
  ASSERT_EQ(1u, mapped_view.chunk_rows());

  common::Rng rng(0xE7A1);
  std::vector<std::vector<std::size_t>> lists;
  for (std::size_t len = 0; len <= 9; ++len) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::size_t> cols(len);
      for (std::size_t& c : cols) {
        c = static_cast<std::size_t>(rng.Uniform(0.0, 1.0) * n) % n;
      }
      lists.push_back(cols);
    }
  }
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  lists.push_back(all);
  lists.push_back(std::vector<std::size_t>(all.rbegin(), all.rend()));
  for (std::size_t t = n - 1; t > 0; --t) {
    const std::size_t u = static_cast<std::size_t>(rng.Uniform(0.0, 1.0) *
                                                   (t + 1)) % (t + 1);
    std::swap(all[t], all[u]);
  }
  lists.push_back(all);

  for (const uncertain::SampleView& view : {resident.view(), mapped_view}) {
    const kernels::PairwiseKernel kinds[] = {
        kernels::PairwiseKernel::ClosedFormED2(ds.objects()),
        kernels::PairwiseKernel::SampleED2(view),
        kernels::PairwiseKernel::SampleED(view),
        kernels::PairwiseKernel::DistanceProbability(view, 0.4),
    };
    for (const auto& kernel : kinds) {
      for (const std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
        for (const std::vector<std::size_t>& cols : lists) {
          std::vector<double> got(cols.size() + 1, -1.0);
          kernel.EvalRow(i, cols.data(), cols.size(), got.data());
          for (std::size_t t = 0; t < cols.size(); ++t) {
            const double want = PairOracle(kernel, i, cols[t]);
            ASSERT_EQ(0, std::memcmp(&want, &got[t], sizeof(double)))
                << "kind=" << static_cast<int>(kernel.kind)
                << " chunked=" << view.chunked() << " i=" << i
                << " col=" << cols[t] << " of " << cols.size();
          }
          EXPECT_EQ(-1.0, got[cols.size()]) << "wrote past count";
        }
      }
    }
  }
  mapped.reset();
  std::remove(sidecar.c_str());
}

// Identical clusterings across backends, selected through the engine's
// memory_budget_bytes knob exactly as production call sites do. Budgets:
// 0 = unlimited (dense), a few rows (tiled), 1 byte (tiled, one-row
// blocks).
TEST(PairwiseStore, ConsumersProduceIdenticalClusteringsAcrossBackends) {
  const auto ds = TestDataset(120, 3, 3, 23);
  const std::size_t row_bytes = ds.size() * sizeof(double);
  const std::size_t budgets[] = {0, 12 * row_bytes, 1};
  const char* expected_backend[] = {"dense", "tiled", "tiled"};

  const auto run = [&](Clusterer* algo, std::size_t budget) {
    engine::EngineConfig config;
    config.num_threads = 1;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    algo->set_engine(engine::Engine(config));
    return algo->Cluster(ds, 3, 7);
  };

  UkMedoids::Params mp;
  mp.use_closed_form = true;
  UkMedoids medoids_closed(mp);
  UkMedoids medoids_sampled;
  Uahc uahc;
  Foptics foptics;
  Fdbscan fdbscan;
  Clusterer* algos[] = {&medoids_closed, &medoids_sampled, &uahc, &foptics,
                        &fdbscan};
  for (Clusterer* algo : algos) {
    const ClusteringResult baseline = run(algo, budgets[0]);
    EXPECT_EQ(baseline.pairwise_backend, expected_backend[0]) << algo->name();
    for (int b = 1; b < 3; ++b) {
      const ClusteringResult out = run(algo, budgets[b]);
      EXPECT_EQ(out.pairwise_backend, expected_backend[b]) << algo->name();
      EXPECT_EQ(out.labels, baseline.labels)
          << algo->name() << " budget=" << budgets[b];
      EXPECT_EQ(out.iterations, baseline.iterations) << algo->name();
      EXPECT_EQ(out.clusters_found, baseline.clusters_found) << algo->name();
      if (!std::isnan(baseline.objective)) {
        EXPECT_EQ(out.objective, baseline.objective) << algo->name();
      }
      if (budgets[b] > 1) {
        EXPECT_LE(out.table_bytes_peak, budgets[b])
            << algo->name() << " exceeded its memory budget";
      }
    }
    // Dense materializes the full O(n^2) table — except FDBSCAN, whose
    // upper-triangle sweep streams bounded scratch on every backend. On top
    // of the table, sweep scratch (e.g. the UK-medoids gather-sweep block
    // stripes) may add at most the ~1 MiB streaming bound.
    const std::size_t table_bytes = ds.size() * ds.size() * sizeof(double);
    const std::size_t scratch_bound = std::size_t{1} << 20;
    if (algo->name() != "FDBSCAN") {
      EXPECT_GE(baseline.table_bytes_peak, table_bytes) << algo->name();
      EXPECT_LE(baseline.table_bytes_peak, table_bytes + scratch_bound)
          << algo->name();
    } else {
      // Bounded streaming scratch (covers the whole table only when n is
      // small enough that it fits in one ~1 MiB chunk, as here).
      EXPECT_LE(baseline.table_bytes_peak, table_bytes) << algo->name();
    }
  }
}

}  // namespace
}  // namespace uclust::clustering
