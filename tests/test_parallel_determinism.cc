// Cross-thread-count determinism of the clustering stack: for a fixed seed
// and block size, labels, objectives, diagnostics, and cached samples must
// be bit-identical for num_threads in {1, 2, 8}. This is the library-wide
// engine contract (fixed block partition + ordered reductions + per-object
// rng sub-streams) that lets production deployments change parallelism
// without changing results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clustering/basic_ukmeans.h"
#include "clustering/ckmeans.h"
#include "clustering/fdbscan.h"
#include "clustering/foptics.h"
#include "clustering/mmvar.h"
#include "clustering/registry.h"
#include "clustering/result_json.h"
#include "clustering/simd/simd.h"
#include "clustering/ucpc.h"
#include "clustering/ukmedoids.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "io/moment_file.h"
#include "io/sample_file.h"
#include "uncertain/sample_store.h"
#include "ukmeans_oracle.h"

namespace uclust::clustering {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

data::UncertainDataset TestDataset(std::size_t n, std::size_t m, int classes,
                                   uint64_t seed) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "determinism");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

engine::Engine EngineWith(int threads) {
  engine::EngineConfig config;
  config.num_threads = threads;
  config.block_size = 128;  // several blocks even on the small test sets
  return engine::Engine(config);
}

// Every compiled-and-supported SIMD path.
std::vector<clustering::simd::Isa> AvailableIsas() {
  namespace simd = clustering::simd;
  std::vector<simd::Isa> isas;
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (simd::TableFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

// Forces one SIMD path for its scope and restores auto dispatch on exit,
// however the scope is left.
class ScopedIsa {
 public:
  explicit ScopedIsa(clustering::simd::Isa isa) {
    EXPECT_TRUE(clustering::simd::ForceIsa(isa))
        << clustering::simd::IsaName(isa);
  }
  ~ScopedIsa() { clustering::simd::ForceIsa(clustering::simd::Isa::kAuto); }
};

// The direct oracle is itself thread-count independent, so one serial
// reference serves the CK-means comparisons at every thread count.
TEST(ParallelDeterminism, UkmeansBitIdenticalAcrossThreadCounts) {
  const auto ds = TestDataset(700, 4, 5, 31);
  const auto baseline = oracle::DirectUkmeans(ds.moments(), 5, 7,
                                              CkMeans::Params(),
                                              EngineWith(1));
  for (int threads : kThreadCounts) {
    const auto out = oracle::DirectUkmeans(ds.moments(), 5, 7,
                                           CkMeans::Params(),
                                           EngineWith(threads));
    EXPECT_EQ(out.labels, baseline.labels) << "threads=" << threads;
    EXPECT_EQ(out.objective, baseline.objective) << "threads=" << threads;
    EXPECT_EQ(out.iterations, baseline.iterations) << "threads=" << threads;
  }
}

// CK-means thread sweep: the one CK-means path must reproduce the direct
// UK-means sweeps bit-for-bit at any thread count. The evaluation/skip
// counters are a pure function of the (deterministic) pruning decisions,
// so they too must be thread-count independent.
TEST(ParallelDeterminism, CkmeansMatchesDirectAcrossThreadCounts) {
  const auto ds = TestDataset(700, 4, 5, 31);
  const auto direct = oracle::DirectUkmeans(ds.moments(), 5, 7,
                                            CkMeans::Params(), EngineWith(1));
  CkMeans::Outcome serial;
  for (int threads : kThreadCounts) {
    const auto out = CkMeans::RunOnMoments(ds.moments(), 5, 7,
                                           CkMeans::Params(),
                                           EngineWith(threads));
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

// The SIMD dispatch path is a second "parallelism" axis with the same
// contract as the thread count: every compiled-and-supported path, forced
// process-wide, at every thread count, must reproduce the serial forced-scalar
// clustering bit-for-bit — labels, objective, iterations, and the
// pruning counters (which are a pure function of the identical
// distances). This is the lane-blocked accumulation guarantee of
// src/clustering/simd surfacing at the clustering level.
TEST(ParallelDeterminism, SimdIsaSweepBitIdenticalAcrossThreadCounts) {
  namespace simd = clustering::simd;
  const auto ds = TestDataset(700, 4, 5, 31);
  const CkMeans::Params p;
  const auto baseline = [&] {
    const ScopedIsa scalar(simd::Isa::kScalar);
    return CkMeans::RunOnMoments(ds.moments(), 5, 7, p, EngineWith(1));
  }();
  for (simd::Isa isa : AvailableIsas()) {
    const ScopedIsa forced(isa);
    for (int threads : kThreadCounts) {
      const auto out =
          CkMeans::RunOnMoments(ds.moments(), 5, 7, p, EngineWith(threads));
      const std::string where = "isa=" + simd::IsaName(isa) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(out.labels, baseline.labels) << where;
      EXPECT_EQ(out.objective, baseline.objective) << where;
      EXPECT_EQ(out.iterations, baseline.iterations) << where;
      EXPECT_EQ(out.center_distance_evals, baseline.center_distance_evals)
          << where;
      EXPECT_EQ(out.bounds_skipped, baseline.bounds_skipped) << where;
    }
  }
}

// The relocation local search (UCPC, MMVar) across thread count x forced
// SIMD path, plus one run on a mapped .umom MomentStore: labels, objective,
// passes, moves and the screen's fallback, skip and vector-stay counts
// must all match the serial forced-scalar resident run. k = 17 puts one
// full 16-cluster lane group and a tail cluster through the relocation-gain
// and stay kernels.
template <typename Algo>
void ExpectLocalSearchSweepBitIdentical(const data::UncertainDataset& ds,
                                        int k, uint64_t seed,
                                        const std::string& tag) {
  namespace simd = clustering::simd;
  const auto expect_same = [&](const LocalSearchOutcome& out,
                               const LocalSearchOutcome& want,
                               const std::string& where) {
    EXPECT_EQ(out.labels, want.labels) << where;
    EXPECT_EQ(out.objective, want.objective) << where;
    EXPECT_EQ(out.passes, want.passes) << where;
    EXPECT_EQ(out.moves, want.moves) << where;
    EXPECT_EQ(out.exact_fallbacks, want.exact_fallbacks) << where;
    EXPECT_EQ(out.screen_skips, want.screen_skips) << where;
    EXPECT_EQ(out.vector_stays, want.vector_stays) << where;
  };
  const auto baseline = [&] {
    const ScopedIsa scalar(simd::Isa::kScalar);
    return Algo::RunOnMoments(ds.moments(), k, seed, typename Algo::Params(),
                              EngineWith(1));
  }();
  for (simd::Isa isa : AvailableIsas()) {
    const ScopedIsa forced(isa);
    for (int threads : kThreadCounts) {
      expect_same(Algo::RunOnMoments(ds.moments(), k, seed,
                                     typename Algo::Params(),
                                     EngineWith(threads)),
                  baseline,
                  tag + " isa=" + simd::IsaName(isa) +
                      " threads=" + std::to_string(threads));
    }
  }

  const std::string sidecar =
      ::testing::TempDir() + "determinism_local_search_" + tag + ".umom";
  ASSERT_TRUE(io::WriteMomentFile(ds.moments(), sidecar,
                                  /*chunk_rows=*/64)
                  .ok());
  auto opened = io::MappedMomentStore::Open(sidecar);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  expect_same(Algo::RunOnMoments(opened.ValueOrDie()->view(), k, seed,
                                 typename Algo::Params(), EngineWith(2)),
              baseline, tag + " mapped");
  std::remove(sidecar.c_str());
}

TEST(ParallelDeterminism, UcpcBitIdenticalAcrossThreadsIsasAndBackends) {
  ExpectLocalSearchSweepBitIdentical<Ucpc>(TestDataset(600, 3, 4, 33), 4, 9,
                                           "ucpc");
  ExpectLocalSearchSweepBitIdentical<Ucpc>(TestDataset(700, 5, 17, 34), 17,
                                           10, "ucpc_k17");
}

TEST(ParallelDeterminism, MmvarBitIdenticalAcrossThreadsIsasAndBackends) {
  ExpectLocalSearchSweepBitIdentical<Mmvar>(TestDataset(600, 3, 4, 35), 4, 11,
                                            "mmvar");
  ExpectLocalSearchSweepBitIdentical<Mmvar>(TestDataset(700, 5, 17, 36), 17,
                                            12, "mmvar_k17");
}

// UCPC and MMVar on a perfbench-shaped instance (n = 4000, m = 16, k = 16)
// long enough for many nearly-still passes. The pins were recorded before
// the relocation screen carried bounds across passes; labels, objective,
// passes and moves must match them at every thread count. Order: seed x
// {UCPC, MMVar}.
struct CentroidPin {
  uint64_t fingerprint;
  int passes;
  int64_t moves;
};
constexpr CentroidPin kCentroidPins[] = {
    {0x30221cdd36eb6f08ull, 17, 4943},  // seed 1 UCPC
    {0xf55e4390050ed26bull, 12, 5683},  // seed 1 MMVar
    {0x67df7b5636d05a16ull, 17, 5017},  // seed 2 UCPC
    {0x85f1053c40039bc6ull, 8, 5085},   // seed 2 MMVar
    {0x100a6af2773d6e4cull, 19, 4997},  // seed 3 UCPC
    {0x82c9f6283b13dfe2ull, 7, 4934},   // seed 3 MMVar
};

TEST(ParallelDeterminism, CentroidLocalSearchMatchesPinnedFingerprints) {
  const auto ds = TestDataset(4000, 16, 16, 61);
  for (int threads : kThreadCounts) {
    std::vector<CentroidPin> got;
    std::string table;
    const engine::Engine eng = EngineWith(threads);
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (const bool ucpc : {true, false}) {
        const LocalSearchOutcome out =
            ucpc ? Ucpc::RunOnMoments(ds.moments(), 16, seed, Ucpc::Params(),
                                      eng)
                 : Mmvar::RunOnMoments(ds.moments(), 16, seed,
                                       Mmvar::Params(), eng);
        got.push_back({ResultFingerprint(out.labels, out.objective),
                       out.passes, out.moves});
        char row[96];
        std::snprintf(row, sizeof(row),
                      "    {0x%016llxull, %d, %lld},  // seed %llu %s\n",
                      static_cast<unsigned long long>(got.back().fingerprint),
                      out.passes, static_cast<long long>(out.moves),
                      static_cast<unsigned long long>(seed),
                      ucpc ? "UCPC" : "MMVar");
        table += row;
      }
    }
    ASSERT_EQ(got.size(), std::size(kCentroidPins));
    for (std::size_t p = 0; p < got.size(); ++p) {
      const std::string where =
          "row " + std::to_string(p) + " threads=" + std::to_string(threads);
      EXPECT_EQ(got[p].fingerprint, kCentroidPins[p].fingerprint) << where;
      EXPECT_EQ(got[p].passes, kCentroidPins[p].passes) << where;
      EXPECT_EQ(got[p].moves, kCentroidPins[p].moves) << where;
    }
    if (HasFailure()) {
      std::printf("actual pins (threads=%d):\n%s", threads, table.c_str());
    }
  }
}

// CK-means on the same perfbench-shaped instance (n = 4000, m = 16), at
// k = 8 (one padded center-lane group), k = 16 (one full group), k = 17 (a
// group plus a row-major tail center) and k = 24 (a full group plus a
// padded one). The pins were recorded with the row-major center scan,
// before the sweep scored 16 centers per vector; labels + objective,
// iterations and both sweep counters must match them at every thread
// count under every forced SIMD path. Order: seed x {k = 8, 16, 17, 24}.
struct CkmeansPin {
  uint64_t fingerprint;
  int iterations;
  int64_t evals;
  int64_t skipped;
};
constexpr CkmeansPin kCkmeansPins[] = {
    {0x0279086d20b22005ull, 14, 98294, 381706},    // seed 1 k=8
    {0x8c430c1bef639057ull, 17, 205244, 946756},   // seed 1 k=16
    {0x2812f5d61c264acbull, 17, 210718, 1013282},  // seed 1 k=17
    {0x36facecbce1bd7f5ull, 17, 346639, 1381361},  // seed 1 k=24
    {0x5a3a8ebb53649343ull, 4, 98143, 61857},      // seed 2 k=8
    {0x0f247a6356c20c40ull, 25, 205695, 1458305},  // seed 2 k=16
    {0x75e09b328f36b25cull, 25, 259338, 1508662},  // seed 2 k=17
    {0xb87f33aa227cc157ull, 31, 681813, 2390187},  // seed 2 k=24
    {0x3eafa681f62c1d1full, 8, 92237, 195763},     // seed 3 k=8
    {0x520a068a80d8a279ull, 14, 211716, 748284},   // seed 3 k=16
    {0xf019cdaf10ebdd53ull, 14, 208254, 811746},   // seed 3 k=17
    {0x3e8164935904ae58ull, 16, 379873, 1252127},  // seed 3 k=24
};

TEST(ParallelDeterminism, CkmeansMatchesPinnedFingerprints) {
  namespace simd = clustering::simd;
  const auto ds = TestDataset(4000, 16, 16, 61);
  for (simd::Isa isa : AvailableIsas()) {
    const ScopedIsa forced(isa);
    for (int threads : kThreadCounts) {
      std::vector<CkmeansPin> got;
      std::string table;
      const engine::Engine eng = EngineWith(threads);
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        for (const int k : {8, 16, 17, 24}) {
          const CkMeans::Outcome out = CkMeans::RunOnMoments(
              ds.moments(), k, seed, CkMeans::Params(), eng);
          got.push_back({ResultFingerprint(out.labels, out.objective),
                         out.iterations, out.center_distance_evals,
                         out.bounds_skipped});
          char row[112];
          std::snprintf(
              row, sizeof(row),
              "    {0x%016llxull, %d, %lld, %lld},  // seed %llu k=%d\n",
              static_cast<unsigned long long>(got.back().fingerprint),
              out.iterations, static_cast<long long>(out.center_distance_evals),
              static_cast<long long>(out.bounds_skipped),
              static_cast<unsigned long long>(seed), k);
          table += row;
        }
      }
      ASSERT_EQ(got.size(), std::size(kCkmeansPins));
      const std::string where_run = "isa=" + simd::IsaName(isa) +
                                    " threads=" + std::to_string(threads);
      for (std::size_t p = 0; p < got.size(); ++p) {
        const std::string where = "row " + std::to_string(p) + " " + where_run;
        EXPECT_EQ(got[p].fingerprint, kCkmeansPins[p].fingerprint) << where;
        EXPECT_EQ(got[p].iterations, kCkmeansPins[p].iterations) << where;
        EXPECT_EQ(got[p].evals, kCkmeansPins[p].evals) << where;
        EXPECT_EQ(got[p].skipped, kCkmeansPins[p].skipped) << where;
      }
      if (HasFailure()) {
        std::printf("actual pins (%s):\n%s", where_run.c_str(), table.c_str());
      }
    }
  }
}

TEST(ParallelDeterminism, ResidentSampleContentsBitIdentical) {
  const auto ds = TestDataset(300, 3, 3, 37);
  const uncertain::ResidentSampleStore serial(ds.objects(), 16, 0x5eed,
                                              EngineWith(1));
  const uncertain::SampleView sv = serial.view();
  for (int threads : kThreadCounts) {
    const uncertain::ResidentSampleStore parallel(ds.objects(), 16, 0x5eed,
                                                  EngineWith(threads));
    const uncertain::SampleView pv = parallel.view();
    ASSERT_EQ(pv.size(), sv.size());
    for (std::size_t i = 0; i < sv.size(); ++i) {
      for (int s = 0; s < sv.samples_per_object(); ++s) {
        const auto a = sv.SampleOf(i, s);
        const auto b = pv.SampleOf(i, s);
        ASSERT_EQ(std::vector<double>(a.begin(), a.end()),
                  std::vector<double>(b.begin(), b.end()))
            << "object " << i << " sample " << s << " threads=" << threads;
      }
    }
  }
}

// Regression for the latent draw-order bug class: object i's sample bytes
// must be a pure function of (pdf, seed, i, S) — never of which objects were
// materialized first or in what order. A visitation-order-dependent rng
// (e.g. one shared stream advanced per draw) would pass the thread-count
// test at num_threads=1 yet change bytes whenever the fill order changes;
// this pins the bytes against per-object draws issued in REVERSE order and
// one-object-at-a-time.
TEST(ParallelDeterminism, SampleBytesIndependentOfMaterializationOrder) {
  const auto ds = TestDataset(120, 3, 3, 47);
  const int s_per = 8;
  const uint64_t seed = 0x5eed;
  const uncertain::ResidentSampleStore store(ds.objects(), s_per, seed,
                                             EngineWith(8));
  const uncertain::SampleView view = store.view();
  const std::size_t row = static_cast<std::size_t>(s_per) * ds.dims();
  std::vector<double> out(row);
  for (std::size_t rev = ds.size(); rev-- > 0;) {
    uncertain::DrawObjectSamples(ds.object(rev), seed, rev, s_per, out);
    const auto got = view.ObjectSamples(rev);
    ASSERT_EQ(std::vector<double>(got.begin(), got.end()), out)
        << "object " << rev << " depends on materialization order";
  }
}

// Same guarantee on the mapped backend, against its chunk-fault order: a
// chunked view must serve identical bytes whether chunks are faulted
// front-to-back or back-to-front (and regardless of the window LRU state in
// between).
TEST(ParallelDeterminism, MappedSampleBytesIndependentOfFaultOrder) {
  const auto ds = TestDataset(120, 3, 3, 49);
  const uncertain::ResidentSampleStore resident(ds.objects(), 8, 0x5eed,
                                                EngineWith(1));
  const std::string sidecar =
      ::testing::TempDir() + "determinism_fault_order.usmp";
  ASSERT_TRUE(io::WriteSampleFile(resident.view(), sidecar, 0x5eed,
                                  /*chunk_rows=*/16)
                  .ok());
  auto opened = io::MappedSampleStore::Open(sidecar);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uncertain::SampleView mapped = opened.ValueOrDie()->view();
  const uncertain::SampleView flat = resident.view();
  const auto expect_row = [&](std::size_t i) {
    const auto a = flat.ObjectSamples(i);
    const auto b = mapped.ObjectSamples(i);
    ASSERT_EQ(std::vector<double>(a.begin(), a.end()),
              std::vector<double>(b.begin(), b.end()))
        << "object " << i;
  };
  for (std::size_t i = 0; i < ds.size(); ++i) expect_row(i);   // forward
  for (std::size_t i = ds.size(); i-- > 0;) expect_row(i);     // backward
  std::remove(sidecar.c_str());
}

// The sampled algorithms of the sweep and the pins below: UK-medoids in its
// sampled fuzzy-distance mode, FDBSCAN, FOPTICS and basic UK-means.
constexpr const char* kSampledAlgorithms[] = {"UK-medoids", "FDBSCAN",
                                              "FOPTICS", "basic UK-means"};

std::unique_ptr<Clusterer> MakeSampled(const std::string& name,
                                       const engine::Engine& eng) {
  std::unique_ptr<Clusterer> algo;
  if (name == "UK-medoids") {
    UkMedoids::Params p;
    p.use_closed_form = false;
    algo = std::make_unique<UkMedoids>(p);
  } else if (name == "FDBSCAN") {
    algo = std::make_unique<Fdbscan>();
  } else if (name == "FOPTICS") {
    algo = std::make_unique<Foptics>();
  } else {
    algo = std::make_unique<BasicUkmeans>();
  }
  algo->set_engine(eng);
  return algo;
}

// Realizations per object of each sampled algorithm (its default Params).
int SamplesOf(const std::string& name) {
  if (name == "UK-medoids") return UkMedoids::Params{}.samples;
  if (name == "FDBSCAN") return Fdbscan::Params{}.samples;
  if (name == "FOPTICS") return Foptics::Params{}.samples;
  return BasicUkmeans::Params{}.samples;
}

// Master draw seed of each sampled algorithm (its default Params).
uint64_t SampleSeedOf(const std::string& name) {
  if (name == "UK-medoids") return UkMedoids::Params{}.sample_seed;
  if (name == "FDBSCAN") return Fdbscan::Params{}.sample_seed;
  if (name == "FOPTICS") return Foptics::Params{}.sample_seed;
  return BasicUkmeans::Params{}.sample_seed;
}

// One fixed instance of the sampled sweep. The budgets pick the backends:
// the pairwise table (n^2 doubles) goes tiled when it exceeds the budget,
// the sample block (n * S * m doubles) goes to a mapped .usmp spill when
// it does. With S * m < n (m = 2) the samples fit wherever the table fits,
// with S * m > n (m = 3, 5) the table fits wherever the samples fit, so
// together the instances reach every {dense, tiled} x {resident, mapped}
// pair.
struct SampledInstance {
  std::size_t n;
  std::size_t m;
  uint64_t seed;
  std::vector<std::size_t> budgets;
};

const std::vector<SampledInstance>& SampledInstances() {
  static const auto* instances = new std::vector<SampledInstance>{
      {100, 2, 53, {0, 60000, 30000}},  // table 80000 B, samples <= 51200 B
      {60, 3, 51, {0, 30000}},          // table 28800 B, samples >= 34560 B
      {60, 5, 55, {0, 40000, 20000}},   // table 28800 B, samples >= 57600 B
  };
  return *instances;
}

// Sampled-workload determinism sweep: for each sampled algorithm, the
// clustering must be bit-identical across the SIMD dispatch path, the
// thread count, the pairwise backend (dense vs tiled), the sample backend
// (Resident vs the mmap-backed .usmp sidecar) and its chunk size — labels,
// objective, iteration count, and both evaluation counters. The baseline is
// the serial forced-scalar run with no budget. Each chunk size is a sidecar
// pre-built from the objects and pinned on the dataset; every mapped budget
// here requires the 16-row floor, so the factory reuses both sizes.
TEST(ParallelDeterminism, SampledWorkloadsBitIdenticalAcrossSampleBackends) {
  namespace simd = clustering::simd;
  const auto make = [](const std::string& name, int threads,
                       std::size_t budget) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    return MakeSampled(name, engine::Engine(config));
  };
  const std::string pinned = ::testing::TempDir() + "determinism_pin.usmp";
  // {pairwise backend, samples mapped} pairs the sweep ran.
  std::set<std::pair<std::string, bool>> arms;
  for (const SampledInstance& inst : SampledInstances()) {
    auto ds = TestDataset(inst.n, inst.m, 3, inst.seed);
    ds.set_samples_sidecar_path(pinned);
    for (const std::string name : kSampledAlgorithms) {
      const ClusteringResult baseline = [&] {
        const ScopedIsa scalar(simd::Isa::kScalar);
        return make(name, 1, 0)->Cluster(ds, 3, 13);
      }();
      const std::size_t sample_bytes = inst.n * inst.m * sizeof(double) *
                                       static_cast<std::size_t>(
                                           SamplesOf(name));
      for (const std::size_t budget : inst.budgets) {
        const bool mapped = budget != 0 && sample_bytes > budget;
        const bool tiled = budget != 0 &&
                           inst.n * inst.n * sizeof(double) > budget;
        // The tiled store recomputes evicted pairs, so its evaluation
        // counters are compared within the arm; a dense arm's equal the
        // baseline's.
        const ClusteringResult arm_base = [&] {
          if (!tiled) return baseline;
          const ScopedIsa scalar(simd::Isa::kScalar);
          return make(name, 1, budget)->Cluster(ds, 3, 13);
        }();
        for (const std::size_t chunk_rows :
             {std::size_t{4}, std::size_t{16}}) {
          ASSERT_TRUE(io::BuildSampleSidecarFromObjects(
                          ds.objects(), pinned, SamplesOf(name),
                          SampleSeedOf(name), chunk_rows)
                          .ok());
          for (simd::Isa isa : AvailableIsas()) {
            const ScopedIsa forced(isa);
            for (int threads : kThreadCounts) {
              const ClusteringResult out =
                  make(name, threads, budget)->Cluster(ds, 3, 13);
              const auto label = [&] {
                return name + " m=" + std::to_string(inst.m) +
                       " budget=" + std::to_string(budget) +
                       " chunk=" + std::to_string(chunk_rows) +
                       " isa=" + simd::IsaName(isa) +
                       " threads=" + std::to_string(threads);
              };
              if (!baseline.pairwise_backend.empty()) {
                EXPECT_EQ(out.pairwise_backend, tiled ? "tiled" : "dense")
                    << label();
                arms.insert({out.pairwise_backend, mapped});
              }
              EXPECT_EQ(out.labels, baseline.labels) << label();
              if (!std::isnan(baseline.objective)) {
                EXPECT_EQ(out.objective, baseline.objective) << label();
              }
              EXPECT_EQ(out.iterations, baseline.iterations) << label();
              EXPECT_EQ(out.ed_evaluations, arm_base.ed_evaluations)
                  << label();
              EXPECT_EQ(out.pair_evaluations, arm_base.pair_evaluations)
                  << label();
            }
          }
          // The mapped runs reused the pinned chunks, not a rebuild.
          auto info = io::ReadSampleFileInfo(pinned);
          ASSERT_TRUE(info.ok()) << info.status().ToString();
          EXPECT_EQ(chunk_rows, info.ValueOrDie().chunk_rows);
        }
      }
    }
  }
  std::remove(pinned.c_str());
  const std::set<std::pair<std::string, bool>> all = {
      {"dense", false}, {"dense", true}, {"tiled", false}, {"tiled", true}};
  EXPECT_EQ(arms, all);
}

// Fingerprints (labels + objective), ED evaluations and pair evaluations of
// the sampled algorithms on the m = 2 and m = 5 instances of the sweep,
// recorded before the matched-realization loops moved into the simd kernel
// layer and the short-row fold replaced the 16-lane fold for m < 16. Order:
// instances x kSampledAlgorithms.
struct SampledPin {
  uint64_t fingerprint;
  int64_t ed_evaluations;
  int64_t pair_evaluations;
};
constexpr SampledPin kSampledPins[] = {
    {0xba9651ba6d812942ull, 4950, 4950},  // m=2 UK-medoids
    {0x3216e726fb671fb2ull, 2167, 2167},  // m=2 FDBSCAN
    {0xc420cd7bde17d014ull, 4950, 4950},  // m=2 FOPTICS
    {0x6d46ff20bee269f2ull, 900, 0},      // m=2 basic UK-means
    {0x531c209542ffa363ull, 1770, 1770},  // m=5 UK-medoids
    {0xe7a05f72c3bf05c3ull, 549, 549},    // m=5 FDBSCAN
    {0x98fcbdca48ab1d12ull, 1770, 1770},  // m=5 FOPTICS
    {0x30d58aebfcc1b4acull, 360, 0},      // m=5 basic UK-means
};

TEST(ParallelDeterminism, SampledWorkloadsMatchPinnedFingerprints) {
  std::vector<SampledPin> got;
  std::string table;
  for (const SampledInstance& inst : SampledInstances()) {
    if (inst.m != 2 && inst.m != 5) continue;
    const auto ds = TestDataset(inst.n, inst.m, 3, inst.seed);
    for (const std::string name : kSampledAlgorithms) {
      const ClusteringResult out =
          MakeSampled(name, EngineWith(1))->Cluster(ds, 3, 13);
      got.push_back({ResultFingerprint(out.labels, out.objective),
                     out.ed_evaluations, out.pair_evaluations});
      char row[128];
      std::snprintf(row, sizeof(row),
                    "    {0x%016llxull, %lld, %lld},  // m=%zu %s\n",
                    static_cast<unsigned long long>(got.back().fingerprint),
                    static_cast<long long>(out.ed_evaluations),
                    static_cast<long long>(out.pair_evaluations), inst.m,
                    name.c_str());
      table += row;
    }
  }
  EXPECT_EQ(got.size(), std::size(kSampledPins));
  for (std::size_t p = 0; p < std::min(got.size(), std::size(kSampledPins));
       ++p) {
    EXPECT_EQ(got[p].fingerprint, kSampledPins[p].fingerprint) << "row " << p;
    EXPECT_EQ(got[p].ed_evaluations, kSampledPins[p].ed_evaluations)
        << "row " << p;
    EXPECT_EQ(got[p].pair_evaluations, kSampledPins[p].pair_evaluations)
        << "row " << p;
  }
  if (HasFailure()) std::printf("actual pins:\n%s", table.c_str());
}

// The Tiled PairwiseStore backend (engine memory budget smaller than the
// dense table) must preserve the whole-registry determinism contract:
// labels, objective, iterations, and ED evaluation counts independent of
// the thread count. The pairwise consumers (UK-medoids, UAHC, FOPTICS,
// FDBSCAN) exercise the streamed sweeps, gathers, and warm rows; the
// moment-kernel algorithms simply ignore the budget.
TEST(ParallelDeterminism, TiledBackendBitIdenticalAcrossThreadCounts) {
  const auto ds = TestDataset(140, 3, 3, 41);
  // ~10 rows of budget: far below the 140 x 140 dense table, so every
  // pairwise consumer runs tiled.
  const std::size_t budget = 10 * ds.size() * sizeof(double);
  const auto make = [&](const std::string& name, int threads) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    return MakeClustererOrDie(name, engine::Engine(config));
  };
  for (const std::string& name :
       {std::string("UK-medoids"), std::string("UAHC"),
        std::string("FOPTICS"), std::string("FDBSCAN")}) {
    const ClusteringResult baseline = make(name, 1)->Cluster(ds, 3, 13);
    EXPECT_EQ(baseline.pairwise_backend, "tiled") << name;
    for (int threads : {2, 8}) {
      const ClusteringResult out = make(name, threads)->Cluster(ds, 3, 13);
      EXPECT_EQ(out.labels, baseline.labels) << name << " threads=" << threads;
      EXPECT_EQ(out.iterations, baseline.iterations)
          << name << " threads=" << threads;
      EXPECT_EQ(out.ed_evaluations, baseline.ed_evaluations)
          << name << " threads=" << threads;
      EXPECT_EQ(out.table_bytes_peak, baseline.table_bytes_peak)
          << name << " threads=" << threads;
      if (!std::isnan(baseline.objective)) {
        EXPECT_EQ(out.objective, baseline.objective)
            << name << " threads=" << threads;
      }
    }
  }
}

// The recomputing backends' sweeps (member-block gathers, warm rows,
// pruned pair sweeps) are pure recompute optimizations: the tiled backend,
// with multi-row and one-row blocks, must reproduce the serial dense clustering
// bit-for-bit at any thread count, and their recompute effort (pair
// evaluations, warm hits, pruned pairs, index candidates and bound tests)
// must not depend on the thread count.
TEST(ParallelDeterminism, TilePoliciesBitIdenticalAcrossThreadCounts) {
  const auto ds = TestDataset(140, 3, 3, 43);
  const auto make = [&](const std::string& name, int threads,
                        std::size_t budget) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 32;
    config.memory_budget_bytes = budget;
    return MakeClustererOrDie(name, engine::Engine(config));
  };
  // ~10 rows (tiled, warm rows on) and 1 byte (tiled, one-row blocks).
  const std::size_t budgets[] = {10 * ds.size() * sizeof(double), 1};
  for (const std::string& name :
       {std::string("UK-medoids"), std::string("UAHC"),
        std::string("FDBSCAN")}) {
    const ClusteringResult baseline = make(name, 1, 0)->Cluster(ds, 3, 13);
    EXPECT_EQ(baseline.pairwise_backend, "dense") << name;
    for (const std::size_t budget : budgets) {
      ClusteringResult serial;
      for (int threads : {1, 2, 8}) {
        const ClusteringResult out =
            make(name, threads, budget)->Cluster(ds, 3, 13);
        EXPECT_EQ(out.labels, baseline.labels)
            << name << " threads=" << threads << " budget=" << budget;
        EXPECT_EQ(out.iterations, baseline.iterations) << name;
        if (!std::isnan(baseline.objective)) {
          EXPECT_EQ(out.objective, baseline.objective) << name;
        }
        if (threads == 1) {
          serial = out;
        } else {
          // Recompute effort itself is thread-count independent.
          EXPECT_EQ(out.pair_evaluations, serial.pair_evaluations)
              << name << " threads=" << threads << " budget=" << budget;
          EXPECT_EQ(out.tile_warm_hits, serial.tile_warm_hits) << name;
          EXPECT_EQ(out.pairs_pruned, serial.pairs_pruned) << name;
          EXPECT_EQ(out.index_candidates, serial.index_candidates) << name;
          EXPECT_EQ(out.index_bound_tests, serial.index_bound_tests) << name;
        }
      }
    }
  }
}

// FOPTICS pays each unordered pair once per phase on a recomputing backend:
// once in the core-distance upper-triangle sweep and once in the OPTICS
// walk, which evaluates only unprocessed columns. The total is exactly
// n * (n - 1) whatever the thread count.
TEST(ParallelDeterminism, FopticsTiledEvaluatesEachPairOncePerPhase) {
  const auto ds = TestDataset(120, 2, 3, 47);
  const std::size_t n = ds.size();
  for (int threads : {1, 4}) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 16;
    config.memory_budget_bytes = 10 * n * sizeof(double);
    Foptics algo;
    algo.set_engine(engine::Engine(config));
    const ClusteringResult out = algo.Cluster(ds, 3, 13);
    EXPECT_EQ(out.pairwise_backend, "tiled") << "threads=" << threads;
    EXPECT_EQ(out.pair_evaluations, static_cast<int64_t>(n * (n - 1)))
        << "threads=" << threads;
    EXPECT_EQ(out.ed_evaluations, out.pair_evaluations)
        << "threads=" << threads;
  }
}

// The per-worker rank heaps of the FOPTICS core-distance sweep must select
// the same core distances the dense table's rows give, at the heap-merge
// and rank-clamp edges: MinPts 0 (no core distances), 1, an interior rank,
// n - 1 (every other object) and beyond n (clamped to n - 1).
TEST(ParallelDeterminism, FopticsMinPtsEdgesMatchDenseAcrossThreads) {
  const auto ds = TestDataset(60, 3, 3, 53);
  const int n = static_cast<int>(ds.size());
  const auto run = [&](int min_pts, int threads, std::size_t budget) {
    engine::EngineConfig config;
    config.num_threads = threads;
    config.block_size = 8;
    config.memory_budget_bytes = budget;
    Foptics::Params params;
    params.min_pts = min_pts;
    Foptics algo(params);
    algo.set_engine(engine::Engine(config));
    return algo.Cluster(ds, 3, 13);
  };
  const std::size_t row_bytes = ds.size() * sizeof(double);
  for (const int min_pts : {0, 1, 5, n - 1, n + 3}) {
    const ClusteringResult dense = run(min_pts, 1, 0);
    EXPECT_EQ(dense.pairwise_backend, "dense");
    for (const std::size_t budget : {std::size_t{0}, 10 * row_bytes,
                                     row_bytes}) {
      for (int threads : kThreadCounts) {
        const ClusteringResult out = run(min_pts, threads, budget);
        EXPECT_EQ(out.labels, dense.labels)
            << "min_pts=" << min_pts << " backend=" << out.pairwise_backend
            << " threads=" << threads;
        EXPECT_EQ(out.clusters_found, dense.clusters_found)
            << "min_pts=" << min_pts << " backend=" << out.pairwise_backend
            << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelDeterminism, EveryRegisteredAlgorithmMatchesSerial) {
  // End-to-end sweep over the registry (pruned variants, medoids, density
  // methods included): labels and objective must not depend on the thread
  // count. Small n keeps the quadratic algorithms fast.
  const auto ds = TestDataset(140, 3, 3, 39);
  for (const std::string& name : RegisteredClusterers()) {
    engine::EngineConfig serial_config;
    serial_config.num_threads = 1;
    serial_config.block_size = 32;
    const auto serial_algo =
        MakeClustererOrDie(name, engine::Engine(serial_config));
    const ClusteringResult baseline = serial_algo->Cluster(ds, 3, 13);
    for (int threads : {2, 8}) {
      engine::EngineConfig config;
      config.num_threads = threads;
      config.block_size = 32;
      const auto algo =
          MakeClustererOrDie(name, engine::Engine(config));
      const ClusteringResult out = algo->Cluster(ds, 3, 13);
      EXPECT_EQ(out.labels, baseline.labels)
          << name << " threads=" << threads;
      if (!std::isnan(baseline.objective)) {
        EXPECT_EQ(out.objective, baseline.objective)
            << name << " threads=" << threads;
      }
      EXPECT_EQ(out.iterations, baseline.iterations)
          << name << " threads=" << threads;
      EXPECT_EQ(out.ed_evaluations, baseline.ed_evaluations)
          << name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace uclust::clustering
