// Tests for the relocation local search (Algorithm 1) and its UCPC / MMVar
// wrappers: convergence, objective monotonicity, cluster-count invariants,
// determinism, recovery of planted structure, and the screened proposals
// (pinned fingerprints of the exhaustive search, a pass-by-pass oracle
// through one stateful screen, the skip/kernel/singleton accounting, and
// its independence of the worker count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clustering/cluster_stats.h"
#include "clustering/init.h"
#include "clustering/local_search.h"
#include "clustering/mmvar.h"
#include "clustering/result_json.h"
#include "clustering/ucpc.h"
#include "common/rng.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "eval/external.h"

namespace uclust::clustering {
namespace {

using uncertain::MomentMatrix;

// Planted mixture wrapped in mild Normal uncertainty.
data::UncertainDataset PlantedDataset(std::size_t n, std::size_t m,
                                      int classes, uint64_t seed) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  params.sigma_min = 0.02;
  params.sigma_max = 0.04;
  params.min_separation = 0.5;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "planted");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  const data::UncertaintyModel model(d, up, seed + 1);
  return model.Uncertain();
}

// ---- Platform-stable instances for the pinned and oracle tests ----------
//
// Built from raw mt19937_64 words (the standard fixes that sequence) and
// IEEE arithmetic only, never <random> distributions (their algorithms are
// implementation-defined), so the pinned fingerprints below hold on every
// standard library. They also assume the library is built without
// multiply-add contraction, as x86-64 builds without -mfma are.
class Words {
 public:
  explicit Words(uint64_t seed) : engine_(seed) {}
  /// Uniform double in [0, 1) with 53 random bits.
  double Unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(engine_() % n);
  }

 private:
  std::mt19937_64 engine_;
};

// Appends one object with mean `mean` and per-dimension variance `var`.
void AppendObject(const std::vector<double>& mean,
                  const std::vector<double>& var, MomentMatrix* mm) {
  std::vector<double> mu2(mean.size());
  for (std::size_t j = 0; j < mean.size(); ++j) {
    mu2[j] = var[j] + mean[j] * mean[j];
  }
  mm->AppendRow(mean, mu2, var);
}

// `classes` centers in [0, 10)^m, each object a center plus uniform noise
// of width `spread`, shifted by `offset` in every dimension, with
// variances `var_scale` * [0.5, 1.5). Object i belongs to class i % classes.
MomentMatrix Mixture(std::size_t n, std::size_t m, int classes,
                     uint64_t seed, double spread = 1.0, double offset = 0.0,
                     double var_scale = 0.02) {
  Words w(seed);
  std::vector<std::vector<double>> centers(classes, std::vector<double>(m));
  for (auto& c : centers) {
    for (double& x : c) x = 10.0 * w.Unit();
  }
  MomentMatrix mm(n, m);
  std::vector<double> mean(m), var(m);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double>& c = centers[i % classes];
    for (std::size_t j = 0; j < m; ++j) {
      mean[j] = offset + c[j] + spread * (w.Unit() - 0.5);
      var[j] = var_scale * (0.5 + w.Unit());
    }
    AppendObject(mean, var, &mm);
  }
  return mm;
}

// Every object of a small mixture repeated `copies` times in a row.
MomentMatrix Duplicated(std::size_t distinct, std::size_t m, int copies,
                        uint64_t seed) {
  const MomentMatrix base = Mixture(distinct, m, 3, seed, 3.0);
  MomentMatrix mm(distinct * copies, m);
  for (std::size_t i = 0; i < distinct; ++i) {
    for (int r = 0; r < copies; ++r) {
      const auto mean = base.mean(i);
      const auto var = base.variance(i);
      AppendObject({mean.begin(), mean.end()}, {var.begin(), var.end()}, &mm);
    }
  }
  return mm;
}

// Points of the integer grid {0..side-1}^2, each `copies` times, all with
// the same variance: symmetric partitions put objects exactly between two
// clusters, so relocation gains tie exactly.
MomentMatrix Lattice(int side, int copies) {
  MomentMatrix mm(static_cast<std::size_t>(side * side * copies), 2);
  for (int r = 0; r < copies; ++r) {
    for (int a = 0; a < side; ++a) {
      for (int b = 0; b < side; ++b) {
        AppendObject({static_cast<double>(a), static_cast<double>(b)},
                     {0.25, 0.25}, &mm);
      }
    }
  }
  return mm;
}

// Means offset by 1e6 with variances near 1e-6: the moment sums are ~1e12
// times larger than the objective, so every gain is computed through
// catastrophic cancellation.
MomentMatrix Offset(std::size_t n, std::size_t m, uint64_t seed) {
  return Mixture(n, m, 4, seed, 0.5, 1e6, 2e-6);
}

// Two mirror-image clusters at x = -3 and x = +3 and a third spread along
// x = 0. Each object of the third gains exactly the same, bit for bit, from
// joining either mirror cluster, so the screen cannot pick one and must
// fall back. Returns the moments; *labels gets the starting partition.
MomentMatrix Equidistant(std::vector<int>* labels) {
  MomentMatrix mm(15, 2);
  labels->clear();
  for (int y = -2; y <= 2; ++y) {
    AppendObject({-3.0, static_cast<double>(y)}, {0.1, 0.1}, &mm);
    AppendObject({3.0, static_cast<double>(y)}, {0.1, 0.1}, &mm);
    AppendObject({0.0, 4.0 * y}, {0.1, 0.1}, &mm);
    labels->insert(labels->end(), {0, 1, 2});
  }
  return mm;
}

// A mixture of `classes` wide, overlapping classes: the clusters keep
// trading boundary objects for many passes after the first few bulk passes,
// which is where the screen's carried bounds decide most objects.
MomentMatrix Overlapping(std::size_t n, std::size_t m, int classes,
                         uint64_t seed) {
  return Mixture(n, m, classes, seed, 20.0);
}

// A wide mixture plus one object far from everything. MMVar collapses it:
// it ends with one big cluster and k - 1 singletons, so its later passes
// screen singleton sources and the 1/s^2 weights of size-1 clusters.
MomentMatrix FarOutlier(uint64_t seed) {
  MomentMatrix mm = Mixture(600, 3, 4, seed, 8.0);
  AppendObject({400.0, -300.0, 500.0}, {0.02, 0.02, 0.02}, &mm);
  return mm;
}

// A planted mixture in which every fifth object has one negative variance
// entry (still a valid second moment): the screen's bound treats v and p as
// magnitudes, so those objects must always take the exact path.
MomentMatrix NegativeVariance(uint64_t seed) {
  const MomentMatrix base = Mixture(200, 3, 4, seed);
  MomentMatrix mm(base.size(), base.dims());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto mean = base.mean(i);
    std::vector<double> var(base.variance(i).begin(), base.variance(i).end());
    if (i % 5 == 0) var[i % 3] = -0.01;
    AppendObject({mean.begin(), mean.end()}, var, &mm);
  }
  return mm;
}

// Labels 0..k-1 for the first k objects (so no cluster starts empty), the
// rest uniform over [0, k).
std::vector<int> InitialLabels(std::size_t n, int k, uint64_t seed) {
  Words w(seed);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i < static_cast<std::size_t>(k)
                    ? static_cast<int>(i)
                    : static_cast<int>(w.Below(k));
  }
  return labels;
}

// How many exact fallbacks an instance must produce.
enum class Fallbacks { kNone, kSome, kAny };

struct Instance {
  const char* name;
  MomentMatrix moments;
  int k;
  Fallbacks fallbacks;
  std::vector<int> init;  // starting partition
};

std::vector<Instance> Instances() {
  std::vector<Instance> out;
  const auto add = [&](const char* name, MomentMatrix mm, int k,
                       Fallbacks fallbacks) {
    std::vector<int> init = InitialLabels(mm.size(), k, 7);
    out.push_back({name, std::move(mm), k, fallbacks, std::move(init)});
  };
  add("planted", Mixture(400, 3, 4, 101), 4, Fallbacks::kNone);
  add("planted_wide", Mixture(600, 19, 6, 102), 17, Fallbacks::kNone);
  add("duplicated", Duplicated(60, 3, 4, 103), 5, Fallbacks::kAny);
  add("lattice", Lattice(6, 3), 4, Fallbacks::kAny);
  add("offset", Offset(300, 4, 104), 4, Fallbacks::kSome);
  std::vector<int> init;
  MomentMatrix mm = Equidistant(&init);
  out.push_back({"equidistant", std::move(mm), 3, Fallbacks::kSome, init});
  add("negative_variance", NegativeVariance(105), 4, Fallbacks::kSome);
  add("overlapping", Overlapping(2000, 16, 16, 106), 16, Fallbacks::kAny);
  add("far_outlier", FarOutlier(107), 5, Fallbacks::kAny);
  return out;
}

constexpr ObjectiveKind kKinds[] = {ObjectiveKind::kUcpc, ObjectiveKind::kMmvar,
                                    ObjectiveKind::kUkmeans};

LocalSearchOutcome RunInstance(const Instance& inst, ObjectiveKind kind,
                               int max_passes = 100,
                               const engine::Engine& eng =
                                   engine::Engine::Serial()) {
  LocalSearchParams params;
  params.objective = kind;
  params.max_passes = max_passes;
  return RunLocalSearchFrom(inst.moments, inst.k, params, inst.init, eng);
}

// Fingerprints recorded from the exhaustive proposal loop before the
// screened proposals replaced it (the last nine rows: from the screen
// before it carried bounds across passes, itself checked against the
// exhaustive oracle): the screen must reproduce every label, objective
// bit, pass and move. Order: Instances() x kKinds.
struct Pin {
  uint64_t fingerprint;
  int passes;
  int64_t moves;
};
constexpr Pin kPins[] = {
    {0x40f5c879bedde0f0ull, 2, 427},   // planted UCPC
    {0xccd1c7249fe2af2aull, 3, 374},   // planted MMVar
    {0x1e2356564b73294dull, 2, 427},   // planted UK-means
    {0x861aea0572d5a136ull, 13, 901},  // planted_wide UCPC
    {0xcdafd91e32496f30ull, 7, 817},   // planted_wide MMVar
    {0x7ced4fb14f22f2e3ull, 13, 879},  // planted_wide UK-means
    {0x6d1a0a02e099b3f0ull, 4, 202},   // duplicated UCPC
    {0x25975f86f3294f35ull, 4, 209},   // duplicated MMVar
    {0x15b4dde1a67c3b39ull, 4, 202},   // duplicated UK-means
    {0xa86b91cd53b0f7e2ull, 3, 85},    // lattice UCPC
    {0xededa829d7dc92d9ull, 3, 84},    // lattice MMVar
    {0x279fb7c9a443464bull, 3, 85},    // lattice UK-means
    {0x68a6a5f739d13954ull, 2, 284},   // offset UCPC
    {0xd6e4dcd2398b62cdull, 10, 279},  // offset MMVar
    {0x68a6a5f739d13954ull, 2, 284},   // offset UK-means
    {0xd94a25c14e46f507ull, 3, 5},     // equidistant UCPC
    {0x7631947b298aeef7ull, 1, 8},     // equidistant MMVar
    {0xb07a318c5a27499full, 3, 5},     // equidistant UK-means
    {0xbbb71dfbb33ce5d9ull, 13, 177},  // negative_variance UCPC
    {0x31831f5df5086effull, 2, 175},   // negative_variance MMVar
    {0xbcbdf079e8d47a0aull, 9, 172},   // negative_variance UK-means
    {0x255bf63b0e2f00ceull, 45, 4355},  // overlapping UCPC
    {0x5901a1ee284b76e1ull, 12, 4830},  // overlapping MMVar
    {0x70a0e0831272f1adull, 45, 4355},  // overlapping UK-means
    {0x2a517e3273943397ull, 30, 970},  // far_outlier UCPC
    {0x85cfbee780da16c9ull, 3, 494},   // far_outlier MMVar
    {0x022124df80e9e44aull, 30, 970},  // far_outlier UK-means
};

TEST(LocalSearchScreen, MatchesPinnedExhaustiveFingerprints) {
  std::vector<Pin> got;
  std::string table;
  for (const Instance& inst : Instances()) {
    for (ObjectiveKind kind : kKinds) {
      const LocalSearchOutcome out = RunInstance(inst, kind);
      got.push_back({ResultFingerprint(out.labels, out.objective), out.passes,
                     out.moves});
      char row[96];
      std::snprintf(row, sizeof(row),
                    "    {0x%016llxull, %d, %lld},  // %s %s\n",
                    static_cast<unsigned long long>(got.back().fingerprint),
                    out.passes, static_cast<long long>(out.moves), inst.name,
                    ObjectiveKindName(kind));
      table += row;
    }
  }
  ASSERT_EQ(got.size(), std::size(kPins));
  for (std::size_t p = 0; p < got.size(); ++p) {
    EXPECT_EQ(got[p].fingerprint, kPins[p].fingerprint) << "row " << p;
    EXPECT_EQ(got[p].passes, kPins[p].passes) << "row " << p;
    EXPECT_EQ(got[p].moves, kPins[p].moves) << "row " << p;
  }
  if (HasFailure()) std::printf("actual pins:\n%s", table.c_str());
}

// The exhaustive search of line 8 for one object, as the local search ran
// it before the screen: every target through the per-dimension
// ObjectiveAfterRemove / ObjectiveAfterAdd.
int ExhaustiveProposal(ObjectiveKind kind,
                       const std::vector<ClusterMoments>& stats,
                       const std::vector<double>& obj,
                       const uncertain::MomentView& mm, std::size_t i,
                       int source, double tolerance) {
  if (stats[source].size() <= 1) return source;
  const double source_after = ObjectiveAfterRemove(kind, stats[source], mm, i);
  int best = source;
  double best_delta = -tolerance;
  for (int c = 0; c < static_cast<int>(stats.size()); ++c) {
    if (c == source) continue;
    const double delta =
        (source_after + ObjectiveAfterAdd(kind, stats[c], mm, i)) -
        (obj[source] + obj[c]);
    if (delta < best_delta) {
      best_delta = delta;
      best = c;
    }
  }
  return best;
}

// What the screen did over a replayed run.
struct ScreenTally {
  int screens = 0;  // BeginPass calls
  int64_t skips = 0, kernel_calls = 0, vector_stays = 0, fallbacks = 0;
  int64_t singletons = 0;  // object-passes whose source was a singleton
};

// Replays the local search pass by pass with the exhaustive oracle and
// checks that the screen proposes exactly the same move for every object
// in every pass. One screen serves the whole run, so its carried bounds are
// checked too.
ScreenTally CheckScreenAgainstOracle(const Instance& inst, ObjectiveKind kind) {
  const MomentMatrix& mm = inst.moments;
  const std::size_t n = mm.size();
  std::vector<int> labels = inst.init;
  std::vector<ClusterMoments> stats(inst.k, ClusterMoments(mm.dims()));
  for (std::size_t i = 0; i < n; ++i) stats[labels[i]].Add(mm, i);
  std::vector<double> obj(inst.k);
  double total = 0.0;
  for (int c = 0; c < inst.k; ++c) {
    obj[c] = Objective(kind, stats[c]);
    total += obj[c];
  }
  RelocationScreen screen(mm, kind, engine::Engine::Serial());
  std::vector<int> screened(n);
  ScreenTally tally;
  for (int pass = 0; pass < 100; ++pass) {
    const double tolerance = 1e-12 * (1.0 + std::fabs(total));
    screen.BeginPass(stats, obj);
    ++tally.screens;
    for (std::size_t i = 0; i < n; ++i) {
      tally.singletons += stats[labels[i]].size() <= 1 ? 1 : 0;
    }
    const RelocationScreen::Counts counts =
        screen.Propose(0, n, labels, tolerance, screened.data());
    tally.skips += counts.skips;
    tally.kernel_calls += counts.kernel_calls;
    tally.vector_stays += counts.vector_stays;
    tally.fallbacks += counts.exact_fallbacks;
    for (std::size_t i = 0; i < n; ++i) {
      const int want =
          ExhaustiveProposal(kind, stats, obj, mm, i, labels[i], tolerance);
      if (screened[i] != want) {
        ADD_FAILURE() << inst.name << " " << ObjectiveKindName(kind)
                      << " pass " << pass << " object " << i << ": screen "
                      << screened[i] << ", exhaustive " << want;
        return tally;
      }
    }
    bool moved = false;  // phase 2, as in RunLocalSearchFrom
    for (std::size_t i = 0; i < n; ++i) {
      const int to = screened[i];
      const int from = labels[i];
      if (to == from || stats[from].size() <= 1) continue;
      const double delta = (ObjectiveAfterRemove(kind, stats[from], mm, i) +
                            ObjectiveAfterAdd(kind, stats[to], mm, i)) -
                           (obj[from] + obj[to]);
      if (delta >= -tolerance) continue;
      stats[from].Remove(mm, i);
      stats[to].Add(mm, i);
      labels[i] = to;
      obj[from] = Objective(kind, stats[from]);
      obj[to] = Objective(kind, stats[to]);
      total += delta;
      moved = true;
    }
    if (!moved) break;
  }
  return tally;
}

// Planted data never needs the fallback; the tie, cancellation and
// negative-variance cases do, so the fallback path is exercised too.
TEST(LocalSearchScreen, ProposalsMatchExhaustiveOraclePassByPass) {
  for (const Instance& inst : Instances()) {
    for (ObjectiveKind kind : kKinds) {
      const ScreenTally tally = CheckScreenAgainstOracle(inst, kind);
      const int64_t fallbacks = tally.fallbacks;
      // The library counts the same fallbacks, skips and vector stays.
      const LocalSearchOutcome out = RunInstance(inst, kind);
      EXPECT_EQ(out.exact_fallbacks, fallbacks)
          << inst.name << " " << ObjectiveKindName(kind);
      EXPECT_EQ(out.screen_skips, tally.skips)
          << inst.name << " " << ObjectiveKindName(kind);
      EXPECT_EQ(out.vector_stays, tally.vector_stays)
          << inst.name << " " << ObjectiveKindName(kind);
      if (inst.fallbacks == Fallbacks::kNone) {
        EXPECT_EQ(fallbacks, 0) << inst.name << " " << ObjectiveKindName(kind);
      } else if (inst.fallbacks == Fallbacks::kSome) {
        EXPECT_GT(fallbacks, 0) << inst.name << " " << ObjectiveKindName(kind);
      }
    }
  }
}

// Every screened object-pass is a skip, a kernel call or a singleton
// source; a kernel call stays on the vector test, falls back to the exact
// search, or neither; and a converged run screens one pass more than it
// counts.
TEST(LocalSearchScreen, CountsObeyAccountingIdentity) {
  for (const Instance& inst : Instances()) {
    for (ObjectiveKind kind : kKinds) {
      const std::string where =
          std::string(inst.name) + " " + ObjectiveKindName(kind);
      const ScreenTally tally = CheckScreenAgainstOracle(inst, kind);
      const int64_t n = static_cast<int64_t>(inst.moments.size());
      EXPECT_EQ(tally.skips + tally.kernel_calls + tally.singletons,
                tally.screens * n)
          << where;
      EXPECT_LE(tally.vector_stays + tally.fallbacks, tally.kernel_calls)
          << where;
      const LocalSearchOutcome out = RunInstance(inst, kind);
      EXPECT_EQ(tally.screens, out.passes + (out.converged ? 1 : 0)) << where;
    }
  }
}

// Phase 1 writes every object's carried bound and proposal from whichever
// worker owns its block; the outcome, every screen count included, must
// not depend on how many workers there are.
TEST(LocalSearchScreen, OutcomeAndCountsIndependentOfThreads) {
  engine::EngineConfig config;
  config.num_threads = 4;
  config.block_size = 64;  // several blocks even on the small instances
  const engine::Engine threaded(config);
  for (const Instance& inst : Instances()) {
    for (ObjectiveKind kind : kKinds) {
      const std::string where =
          std::string(inst.name) + " " + ObjectiveKindName(kind);
      const LocalSearchOutcome want = RunInstance(inst, kind);
      const LocalSearchOutcome got = RunInstance(inst, kind, 100, threaded);
      EXPECT_EQ(got.labels, want.labels) << where;
      EXPECT_EQ(got.objective, want.objective) << where;
      EXPECT_EQ(got.passes, want.passes) << where;
      EXPECT_EQ(got.moves, want.moves) << where;
      EXPECT_EQ(got.exact_fallbacks, want.exact_fallbacks) << where;
      EXPECT_EQ(got.screen_skips, want.screen_skips) << where;
      EXPECT_EQ(got.vector_stays, want.vector_stays) << where;
    }
  }
}

// On a long run the late passes move few objects, and the carried bounds
// decide most of them without the gain kernel. Of the objects that do run
// the kernel (k = 16, one full lane group), the vector stay test settles
// some.
TEST(LocalSearchScreen, CarriedBoundsSkipOnLongRuns) {
  for (const Instance& inst : Instances()) {
    if (std::string(inst.name) != "overlapping") continue;
    const LocalSearchOutcome out = RunInstance(inst, ObjectiveKind::kUcpc);
    EXPECT_GE(out.passes, 20);
    EXPECT_TRUE(out.converged);
    EXPECT_GT(out.screen_skips, 0);
    EXPECT_GT(out.vector_stays, 0);
    return;
  }
  ADD_FAILURE() << "no overlapping instance";
}

// MMVar collapses the far_outlier instance into singleton clusters; the
// replay (and the oracle test) screens those singleton sources.
TEST(LocalSearchScreen, MmvarCollapsesToSingletonClusters) {
  for (const Instance& inst : Instances()) {
    if (std::string(inst.name) != "far_outlier") continue;
    const LocalSearchOutcome out = RunInstance(inst, ObjectiveKind::kMmvar);
    const auto sizes = ClusterSizes(out.labels, inst.k);
    EXPECT_EQ(std::count(sizes.begin(), sizes.end(), 1u), inst.k - 1);
    EXPECT_GT(CheckScreenAgainstOracle(inst, ObjectiveKind::kMmvar).singletons,
              0);
    return;
  }
  ADD_FAILURE() << "no far_outlier instance";
}

// Algorithm 1's invariant: no relocation pass increases the objective.
// Stopping after p = 1, 2, ... passes from the same start must give a
// non-increasing sequence of objectives.
TEST(LocalSearchScreen, ObjectiveNonIncreasingPassByPass) {
  for (const Instance& inst : Instances()) {
    for (ObjectiveKind kind : kKinds) {
      double previous = RunInstance(inst, kind, 0).objective;
      for (int p = 1; p <= 15; ++p) {
        const LocalSearchOutcome out = RunInstance(inst, kind, p);
        EXPECT_LE(out.objective, previous)
            << inst.name << " " << ObjectiveKindName(kind) << " pass " << p;
        previous = out.objective;
      }
    }
  }
}

class LocalSearchObjective : public ::testing::TestWithParam<ObjectiveKind> {
};

TEST_P(LocalSearchObjective, ProducesExactlyKNonEmptyClusters) {
  const auto ds = PlantedDataset(120, 3, 4, 1);
  const MomentMatrix& mm = ds.moments();
  LocalSearchParams params;
  params.objective = GetParam();
  common::Rng rng(2);
  const LocalSearchOutcome out = RunLocalSearch(mm, 4, params, &rng);
  ASSERT_EQ(out.labels.size(), 120u);
  const auto sizes = ClusterSizes(out.labels, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_GT(sizes[c], 0u) << "cluster " << c << " is empty";
  }
  EXPECT_EQ(CountClusters(out.labels), 4);
}

TEST_P(LocalSearchObjective, ObjectiveNeverIncreasesFromInitialPartition) {
  const auto ds = PlantedDataset(80, 2, 3, 3);
  const MomentMatrix& mm = ds.moments();
  common::Rng rng(4);
  std::vector<int> init = RandomPartition(mm.size(), 3, &rng);
  const double before = TotalObjective(GetParam(), mm, init, 3);
  LocalSearchParams params;
  params.objective = GetParam();
  const LocalSearchOutcome out = RunLocalSearchFrom(mm, 3, params, init);
  EXPECT_LE(out.objective, before + 1e-9);
  // Reported objective matches an independent recomputation from labels.
  EXPECT_NEAR(out.objective, TotalObjective(GetParam(), mm, out.labels, 3),
              1e-9 * (1.0 + out.objective));
}

TEST_P(LocalSearchObjective, ConvergedStateIsOneMoveOptimal) {
  // After convergence no single relocation can strictly improve the
  // objective (local optimality, Proposition 4's fixed point).
  const auto ds = PlantedDataset(60, 2, 3, 5);
  const MomentMatrix& mm = ds.moments();
  LocalSearchParams params;
  params.objective = GetParam();
  common::Rng rng(6);
  const LocalSearchOutcome out = RunLocalSearch(mm, 3, params, &rng);

  std::vector<ClusterMoments> stats(3, ClusterMoments(mm.dims()));
  for (std::size_t i = 0; i < mm.size(); ++i) {
    stats[out.labels[i]].Add(mm, i);
  }
  for (std::size_t i = 0; i < mm.size(); ++i) {
    const int src = out.labels[i];
    if (stats[src].size() <= 1) continue;
    const double j_src = Objective(params.objective, stats[src]);
    const double j_src_minus =
        ObjectiveAfterRemove(params.objective, stats[src], mm, i);
    for (int c = 0; c < 3; ++c) {
      if (c == src) continue;
      const double j_c = Objective(params.objective, stats[c]);
      const double j_c_plus =
          ObjectiveAfterAdd(params.objective, stats[c], mm, i);
      const double delta = (j_src_minus + j_c_plus) - (j_src + j_c);
      EXPECT_GE(delta, -1e-7 * (1.0 + out.objective))
          << "object " << i << " -> cluster " << c;
    }
  }
}

TEST_P(LocalSearchObjective, DeterministicGivenSeed) {
  const auto ds = PlantedDataset(100, 3, 4, 7);
  const MomentMatrix& mm = ds.moments();
  LocalSearchParams params;
  params.objective = GetParam();
  common::Rng rng_a(11), rng_b(11);
  const auto a = RunLocalSearch(mm, 4, params, &rng_a);
  const auto b = RunLocalSearch(mm, 4, params, &rng_b);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.passes, b.passes);
}

TEST_P(LocalSearchObjective, RespectsMaxPasses) {
  const auto ds = PlantedDataset(200, 4, 5, 9);
  LocalSearchParams params;
  params.objective = GetParam();
  params.max_passes = 1;
  common::Rng rng(10);
  const auto out = RunLocalSearch(ds.moments(), 5, params, &rng);
  EXPECT_LE(out.passes, 1);
}

TEST_P(LocalSearchObjective, ConvergedOnlyWhenTheLastPassMovedNothing) {
  const auto ds = PlantedDataset(200, 4, 5, 9);
  LocalSearchParams params;
  params.objective = GetParam();
  params.max_passes = 1;
  common::Rng rng(10);
  const auto capped = RunLocalSearch(ds.moments(), 5, params, &rng);
  EXPECT_EQ(capped.passes, 1);
  EXPECT_FALSE(capped.converged);
  params.max_passes = LocalSearchParams().max_passes;
  common::Rng rng_full(10);
  const auto full = RunLocalSearch(ds.moments(), 5, params, &rng_full);
  EXPECT_TRUE(full.converged);
  EXPECT_LT(full.passes, params.max_passes);
}

std::string ObjectiveName(
    const ::testing::TestParamInfo<ObjectiveKind>& param_info) {
  const std::string raw = ObjectiveKindName(param_info.param);
  return raw == "UK-means" ? "UKmeans" : raw;
}

INSTANTIATE_TEST_SUITE_P(AllObjectives, LocalSearchObjective,
                         ::testing::Values(ObjectiveKind::kUcpc,
                                           ObjectiveKind::kMmvar,
                                           ObjectiveKind::kUkmeans),
                         ObjectiveName);

TEST(LocalSearch, KEqualsOneKeepsEverything) {
  const auto ds = PlantedDataset(30, 2, 2, 13);
  LocalSearchParams params;
  common::Rng rng(14);
  const auto out = RunLocalSearch(ds.moments(), 1, params, &rng);
  for (int l : out.labels) EXPECT_EQ(l, 0);
}

TEST(LocalSearch, KEqualsNMakesSingletons) {
  const auto ds = PlantedDataset(12, 2, 2, 15);
  LocalSearchParams params;
  common::Rng rng(16);
  const auto out = RunLocalSearch(ds.moments(), 12, params, &rng);
  const auto sizes = ClusterSizes(out.labels, 12);
  for (auto s : sizes) EXPECT_EQ(s, 1u);
}

TEST(Ucpc, RecoversPlantedClusters) {
  const auto ds = PlantedDataset(240, 3, 3, 17);
  const Ucpc algo;
  const ClusteringResult result = algo.Cluster(ds, 3, 18);
  EXPECT_EQ(result.clusters_found, 3);
  EXPECT_GT(eval::AdjustedRand(ds.labels(), result.labels), 0.9);
  EXPECT_GT(result.iterations, 0);
}

TEST(Ucpc, KernelAgreesWithClustererInterface) {
  const auto ds = PlantedDataset(90, 2, 3, 19);
  const Ucpc algo;
  const ClusteringResult via_interface = algo.Cluster(ds, 3, 20);
  const LocalSearchOutcome via_kernel =
      Ucpc::RunOnMoments(ds.moments(), 3, 20);
  EXPECT_EQ(via_interface.labels, via_kernel.labels);
  EXPECT_DOUBLE_EQ(via_interface.objective, via_kernel.objective);
}

TEST(Ucpc, NameAndDiagnostics) {
  const Ucpc algo;
  EXPECT_EQ(algo.name(), "UCPC");
  const auto ds = PlantedDataset(40, 2, 2, 21);
  const ClusteringResult r = algo.Cluster(ds, 2, 22);
  EXPECT_EQ(r.k_requested, 2);
  EXPECT_GE(r.online_ms, 0.0);
  EXPECT_EQ(r.ed_evaluations, 0);  // closed-form algorithm
}

TEST(Mmvar, RecoversPlantedClusters) {
  const auto ds = PlantedDataset(240, 3, 3, 23);
  const Mmvar algo;
  const ClusteringResult result = algo.Cluster(ds, 3, 24);
  EXPECT_EQ(result.clusters_found, 3);
  EXPECT_GT(eval::AdjustedRand(ds.labels(), result.labels), 0.85);
}

TEST(Mmvar, ObjectiveIsMixtureVarianceSum) {
  const auto ds = PlantedDataset(60, 2, 2, 25);
  const Mmvar algo;
  const ClusteringResult r = algo.Cluster(ds, 2, 26);
  EXPECT_NEAR(r.objective,
              TotalObjective(ObjectiveKind::kMmvar, ds.moments(), r.labels, 2),
              1e-9 * (1.0 + r.objective));
}

TEST(UcpcVsMmvar, ObjectivesDisagreeInGeneral) {
  // Although J_MM is proportional to J_UK per cluster, the *sums* over a
  // clustering weight clusters differently, so the two algorithms are not
  // the same algorithm. Sanity check: on a dataset with heavy variance
  // structure the final partitions typically differ for at least one seed.
  const auto ds = PlantedDataset(150, 2, 3, 27);
  bool differ = false;
  for (uint64_t seed = 0; seed < 5 && !differ; ++seed) {
    const auto u = Ucpc::RunOnMoments(ds.moments(), 3, seed);
    const auto m = Mmvar::RunOnMoments(ds.moments(), 3, seed);
    differ = u.labels != m.labels;
  }
  SUCCEED();  // structural smoke check; equality is permitted but unlikely
}

}  // namespace
}  // namespace uclust::clustering
