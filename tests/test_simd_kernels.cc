// Dispatch parity of the SIMD kernel layer: every compiled-and-supported
// ISA path (scalar reference, AVX2) must produce BIT-IDENTICAL
// doubles for every primitive, on every input shape — full lane groups,
// remainder lanes, all-tail rows shorter than one lane block — and the
// parity must survive all the way up through the tile producers, the
// chunked MomentView plumbing, and the CK-means reduced-moment sweep.
// This is the contract (simd.h) that makes the dispatched path a pure
// throughput choice: forcing a path can change speed, never values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "clustering/ckmeans.h"
#include "clustering/kernels.h"
#include "clustering/simd/simd.h"
#include "common/rng.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "uncertain/moments.h"
#include "ukmeans_oracle.h"

namespace uclust::clustering::simd {
namespace {

// Every dimensionality class the lane-blocked order distinguishes:
// all-tail (m < 16), exact groups (16, 32, 64), and group + remainder.
constexpr std::size_t kDims[] = {1,  2,  3,  4,  5,  6,  7,  8, 9,
                                 15, 16, 17, 31, 32, 33, 64, 100};

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> isas;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (TableFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

// Restores auto dispatch no matter how a ForceIsa-using test exits.
struct IsaGuard {
  ~IsaGuard() { ForceIsa(Isa::kAuto); }
};

std::vector<double> RandomVector(std::size_t n, common::Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(-3.0, 3.0);
  return v;
}

// Bitwise comparison: parity means identical bits, not just ==, so that
// signed zeros and every last ulp are pinned.
::testing::AssertionResult BitsEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " differ in bits";
}

TEST(SimdKernels, ScalarTableAlwaysAvailable) {
  ASSERT_NE(TableFor(Isa::kScalar), nullptr);
  ASSERT_NE(TableFor(Isa::kAuto), nullptr);
  const Isa best = DetectBestIsa();
  EXPECT_NE(TableFor(best), nullptr);
  EXPECT_EQ(TableFor(Isa::kAuto), TableFor(best));
}

TEST(SimdKernels, IsaNamesRoundTrip) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAuto}) {
    Isa parsed = Isa::kAuto;
    ASSERT_TRUE(IsaFromString(IsaName(isa), &parsed)) << IsaName(isa);
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed = Isa::kScalar;
  EXPECT_FALSE(IsaFromString("sse9", &parsed));
  EXPECT_FALSE(IsaFromString("neon", &parsed));
  EXPECT_EQ(parsed, Isa::kScalar);  // untouched on failure
}

TEST(SimdKernels, ReductionPrimitivesBitIdenticalAcrossIsas) {
  const KernelTable* ref = TableFor(Isa::kScalar);
  ASSERT_NE(ref, nullptr);
  common::Rng rng(0x51D0);
  for (const std::size_t m : kDims) {
    const std::vector<double> a = RandomVector(m, &rng);
    const std::vector<double> b = RandomVector(m, &rng);
    const double want_d2 = ref->squared_distance(a.data(), b.data(), m);
    const double want_sum = ref->sum(a.data(), m);
    const double want_ed2 = ref->ed2(a.data(), b.data(), m, 0.25, 1.75);
    for (Isa isa : AvailableIsas()) {
      const KernelTable* t = TableFor(isa);
      EXPECT_TRUE(
          BitsEqual(want_d2, t->squared_distance(a.data(), b.data(), m)))
          << "squared_distance m=" << m << " isa=" << IsaName(isa);
      EXPECT_TRUE(BitsEqual(want_sum, t->sum(a.data(), m)))
          << "sum m=" << m << " isa=" << IsaName(isa);
      EXPECT_TRUE(BitsEqual(want_ed2, t->ed2(a.data(), b.data(), m, 0.25,
                                             1.75)))
          << "ed2 m=" << m << " isa=" << IsaName(isa);
    }
  }
}

// The historical lane-blocked squared distance, spelled out: element j
// accumulates into lane j % kLanes in ascending j from +0.0, then the
// FoldLanes tree (halve 16 -> 8 -> 4, then (t0 + t2) + (t1 + t3)). This
// file is compiled with -ffp-contract=off like the simd TUs, so the
// reference rounds add for add like the pre-short-row kernel.
double LaneBlockedSquaredDistance(const double* a, const double* b,
                                  std::size_t m) {
  double lanes[kLanes] = {};
  for (std::size_t j = 0; j < m; ++j) {
    const double d = a[j] - b[j];
    lanes[j % kLanes] += d * d;
  }
  for (std::size_t width = kLanes / 2; width >= 4; width /= 2) {
    for (std::size_t l = 0; l < width; ++l) lanes[l] += lanes[l + width];
  }
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

// Bitwise equality, except that any NaN matches any NaN (payloads are not
// part of the contract).
::testing::AssertionResult SameDouble(double want, double got) {
  if (std::isnan(want) && std::isnan(got)) {
    return ::testing::AssertionSuccess();
  }
  return BitsEqual(want, got);
}

// The short-row path (0 < m < kLanes) drops the additions of empty lanes;
// it must reproduce the full 16-lane fold bit for bit on every ISA, on
// hostile values as well as ordinary ones. m = 1 and m = 2 enumerate every
// combination of the special values; longer rows mix them at random.
TEST(SimdKernels, ShortRowFoldMatchesLaneBlockedReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {0.0,     -0.0,   denorm, -denorm, 1e-310,
                             -1e-310, 1e300,  -1e300, inf,     -inf,
                             std::numeric_limits<double>::quiet_NaN(),
                             1.5,     -2.25};
  const std::size_t n_special = std::size(specials);
  std::size_t rows = 0;
  const auto check = [&](const std::vector<double>& a,
                         const std::vector<double>& b) {
    const std::size_t m = a.size();
    const double want = LaneBlockedSquaredDistance(a.data(), b.data(), m);
    for (Isa isa : AvailableIsas()) {
      const double got = TableFor(isa)->squared_distance(a.data(), b.data(), m);
      EXPECT_TRUE(SameDouble(want, got))
          << "m=" << m << " isa=" << IsaName(isa) << " a[0]=" << a[0]
          << " b[0]=" << b[0];
    }
    ++rows;
  };
  // m = 1: every (a, b) pair; m = 2: every (a0, b0, a1, b1) quadruple.
  for (std::size_t i = 0; i < n_special; ++i) {
    for (std::size_t j = 0; j < n_special; ++j) {
      check({specials[i]}, {specials[j]});
      for (std::size_t k = 0; k < n_special; ++k) {
        for (std::size_t l = 0; l < n_special; ++l) {
          check({specials[i], specials[k]}, {specials[j], specials[l]});
        }
      }
    }
  }
  // m = 1..kLanes + 1: random rows, each element special with probability
  // 1/2 (the full-group body rides along as a control).
  common::Rng rng(0x5A0F);
  for (std::size_t m = 1; m <= kLanes + 1; ++m) {
    for (int trial = 0; trial < 4000; ++trial) {
      std::vector<double> a(m), b(m);
      for (std::size_t j = 0; j < m; ++j) {
        const auto draw = [&] {
          return rng.Uniform(0.0, 1.0) < 0.5
                     ? specials[static_cast<std::size_t>(
                           rng.Uniform(0.0, 1.0) * n_special) %
                                n_special]
                     : rng.Uniform(-3.0, 3.0);
        };
        a[j] = draw();
        b[j] = draw();
      }
      check(a, b);
    }
  }
  EXPECT_GT(rows, std::size_t{28000});
}

// The matched-realization kernels against the per-realization loops they
// replaced (one squared_distance call per realization, summed in s order
// from 0.0, or counted against eps2), for every ISA, with paired objects
// (b_stride = m) and a single point (b_stride = 0). eps2 sweeps values
// that tie a realization's squared distance exactly, so `<=` is pinned.
TEST(SimdKernels, RealizationKernelsMatchPerRealizationLoop) {
  const KernelTable* ref = TableFor(Isa::kScalar);
  ASSERT_NE(ref, nullptr);
  common::Rng rng(0x5A10);
  for (const std::size_t m : {1, 2, 3, 7, 15, 16, 17, 33}) {
    for (const std::size_t s_count : {1, 24, 32}) {
      const std::vector<double> a = RandomVector(s_count * m, &rng);
      std::vector<double> b = RandomVector(s_count * m, &rng);
      // One realization pair at distance 0, so eps2 = 0 ties too.
      if (s_count > 1) std::copy(a.begin(), a.begin() + m, b.begin());
      for (const std::size_t b_stride : {m, std::size_t{0}}) {
        std::vector<double> d2(s_count);
        double want_sum = 0.0;
        for (std::size_t s = 0; s < s_count; ++s) {
          d2[s] = ref->squared_distance(a.data() + s * m,
                                        b.data() + s * b_stride, m);
          want_sum += d2[s];
        }
        for (Isa isa : AvailableIsas()) {
          const KernelTable* t = TableFor(isa);
          EXPECT_TRUE(BitsEqual(want_sum,
                                t->realization_squared_sum(
                                    a.data(), b.data(), s_count, m, b_stride)))
              << "m=" << m << " S=" << s_count << " b_stride=" << b_stride
              << " isa=" << IsaName(isa);
        }
        if (b_stride == 0) continue;  // realizations_within pairs objects
        std::vector<double> ties = {0.0, d2.front(), d2[s_count / 2],
                                    d2.back(), -1.0};
        ties.push_back(std::nextafter(d2[s_count / 2], 0.0));
        ties.push_back(*std::max_element(d2.begin(), d2.end()));
        for (const double eps2 : ties) {
          const std::size_t want = static_cast<std::size_t>(
              std::count_if(d2.begin(), d2.end(),
                            [&](double v) { return v <= eps2; }));
          for (Isa isa : AvailableIsas()) {
            EXPECT_EQ(want, TableFor(isa)->realizations_within(
                                a.data(), b.data(), s_count, m, eps2))
                << "m=" << m << " S=" << s_count << " eps2=" << eps2
                << " isa=" << IsaName(isa);
          }
        }
      }
    }
  }
}

// The four-pair row kernels (PairwiseKernel::EvalRow's unit) against the
// per-pair kernels, on every ISA: one row object paired with four partners,
// the row as the first operand of every pair (a partner above it), as the
// second (below it), and mixed. Sums must be the per-pair results of the
// same table and of the scalar table bit for bit, except that any NaN
// matches any NaN (SameDouble: which of two NaN payloads an addition keeps
// depends on the compiler's operand order, so payloads are outside the
// contract), and counts must be equal. Hostile realizations: NaNs of
// different payloads in the row and in a partner at the same coordinate,
// +inf against +inf (inf - inf), and -inf.
TEST(SimdKernels, RowKernelsMatchPairKernelsAcrossIsas) {
  const KernelTable* ref = TableFor(Isa::kScalar);
  ASSERT_NE(ref, nullptr);
  const double inf = std::numeric_limits<double>::infinity();
  const auto nan_payload = [](uint64_t payload) {
    const uint64_t bits = 0x7FF8000000000000ULL | payload;
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  };
  common::Rng rng(0x40B5);
  for (const std::size_t m : {1, 2, 3, 15, 16, 17, 33}) {
    // S = 7: whole groups of four realizations plus a tail of three.
    for (const std::size_t s_count : {1, 7, 24, 32}) {
      for (const bool hostile : {false, true}) {
        const std::size_t row_len = s_count * m;
        std::vector<double> row = RandomVector(row_len, &rng);
        std::vector<std::vector<double>> partners;
        for (int t = 0; t < 4; ++t) {
          partners.push_back(RandomVector(row_len, &rng));
        }
        // Partner 3 repeats the row's first realization: distance 0, so
        // eps2 = 0 ties.
        std::copy(row.begin(), row.begin() + m, partners[3].begin());
        if (hostile) {
          const std::size_t last = row_len - 1;
          row[0] = nan_payload(1);
          partners[0][0] = nan_payload(2);
          row[last] = inf;
          partners[1][last] = inf;
          partners[2][row_len / 2] = -inf;
          partners[3][last] = nan_payload(3);
        }
        const double* p[4] = {partners[0].data(), partners[1].data(),
                              partners[2].data(), partners[3].data()};
        // Bit t of `row_first` puts the row first in pair t.
        for (const unsigned row_first : {0xFu, 0x0u, 0x5u, 0x6u}) {
          const double* a[4];
          const double* b[4];
          for (int t = 0; t < 4; ++t) {
            const bool first = (row_first >> t) & 1u;
            a[t] = first ? row.data() : p[t];
            b[t] = first ? p[t] : row.data();
          }
          const std::string where =
              "m=" + std::to_string(m) + " S=" + std::to_string(s_count) +
              " hostile=" + std::to_string(hostile) +
              " row_first=" + std::to_string(row_first);
          for (Isa isa : AvailableIsas()) {
            const KernelTable* t = TableFor(isa);
            double sums[4];
            t->realization_squared_sums4(a, b, s_count, m, sums);
            for (int u = 0; u < 4; ++u) {
              EXPECT_TRUE(SameDouble(
                  t->realization_squared_sum(a[u], b[u], s_count, m, m),
                  sums[u]))
                  << where << " pair " << u << " isa=" << IsaName(isa);
              EXPECT_TRUE(SameDouble(
                  ref->realization_squared_sum(a[u], b[u], s_count, m, m),
                  sums[u]))
                  << where << " pair " << u << " isa=" << IsaName(isa);
            }
            const double d2 = ref->squared_distance(a[1], b[1], m);
            for (const double eps2 : {0.0, d2, std::nextafter(d2, 0.0),
                                      2.0 * m, inf, -1.0}) {
              std::size_t hits[4];
              t->realizations_within4(a, b, s_count, m, eps2, hits);
              for (int u = 0; u < 4; ++u) {
                EXPECT_EQ(ref->realizations_within(a[u], b[u], s_count, m,
                                                   eps2),
                          hits[u])
                    << where << " eps2=" << eps2 << " pair " << u
                    << " isa=" << IsaName(isa);
              }
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, PackRowBitIdenticalAcrossIsas) {
  const KernelTable* ref = TableFor(Isa::kScalar);
  ASSERT_NE(ref, nullptr);
  common::Rng rng(0x51D1);
  for (const std::size_t m : kDims) {
    const std::vector<double> mean = RandomVector(m, &rng);
    const std::vector<double> mu2 = RandomVector(m, &rng);
    std::vector<double> var = RandomVector(m, &rng);
    for (double& v : var) v = std::abs(v);

    std::vector<double> want_mean(m), want_mu2(m), want_var(m);
    double want_tv = 0.0;
    ref->pack_row(mean.data(), mu2.data(), var.data(), m, want_mean.data(),
                  want_mu2.data(), want_var.data(), &want_tv);

    for (Isa isa : AvailableIsas()) {
      const KernelTable* t = TableFor(isa);
      std::vector<double> pm(m), p2(m), pv(m);
      double tv = 0.0;
      t->pack_row(mean.data(), mu2.data(), var.data(), m, pm.data(), p2.data(),
                  pv.data(), &tv);
      EXPECT_EQ(0, std::memcmp(pm.data(), want_mean.data(),
                               m * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(p2.data(), want_mu2.data(),
                               m * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(pv.data(), want_var.data(),
                               m * sizeof(double)));
      EXPECT_TRUE(BitsEqual(want_tv, tv))
          << "pack_row total_var m=" << m << " isa=" << IsaName(isa);
    }
  }
}

// Center lanes run across centers, so the center count matters as much as
// m: row-major tails alone (k < 8), one padded group (k = 8), one full
// group, a group plus a row-major tail (17, 35) or a padded group (24),
// against all-tail rows, one full coordinate group, and group + tail rows.
// The reference is the oracle's row-major squared_distance scan. Each
// reuse_c gets two substitutes: the distance the scan would compute (what
// the CK-means retest hands over) and a random value in [0, 4), mostly far
// below the real distances, so the substitution decides the winner and a
// kernel that ignored reuse_c or applied it to the wrong center fails.
TEST(SimdKernels, NearestTwoBitIdenticalAcrossIsas) {
  const KernelTable* ref = TableFor(Isa::kScalar);
  ASSERT_NE(ref, nullptr);
  common::Rng rng(0x51D2);
  int substitute_won = 0;
  for (const std::size_t m : {1, 3, 15, 16, 17, 33}) {
    for (const int k : {1, 2, 7, 8, 16, 17, 24, 35}) {
      const std::vector<double> point = RandomVector(m, &rng);
      const std::vector<double> centroids = RandomVector(k * m, &rng);
      const auto dist = [&](int c) {
        return ref->squared_distance(point.data(), centroids.data() + c * m,
                                     m);
      };
      std::vector<double> lanes;
      ToCenterLanes(centroids.data(), k, m, &lanes);
      ASSERT_EQ(lanes.size(),
                std::max(CenterLaneStride(k), std::size_t(k)) * m);
      for (const int reuse_c : {-1, 0, k / 2, k - 1}) {
        const double exact = reuse_c < 0 ? 0.0 : dist(reuse_c);
        for (const double reuse_d2 : {exact, rng.Uniform(0.0, 4.0)}) {
          const std::string where =
              "m=" + std::to_string(m) + " k=" + std::to_string(k) +
              " reuse_c=" + std::to_string(reuse_c) +
              (reuse_d2 == exact ? " exact" : " random");
          const oracle::NearestTwoResult want = oracle::NearestTwoScan(
              *ref, point.data(), centroids.data(), k, m, reuse_c, reuse_d2);
          if (reuse_c >= 0 && reuse_d2 != exact && want.best == reuse_c &&
              oracle::NearestTwoScan(*ref, point.data(), centroids.data(), k,
                                     m)
                      .best != reuse_c) {
            ++substitute_won;
          }
          // The distance a center contributes: the substitute for reuse_c,
          // squared_distance otherwise.
          const auto scored = [&](int c) {
            return c == reuse_c ? reuse_d2 : dist(c);
          };
          for (Isa isa : AvailableIsas()) {
            const std::string at = where + " isa=" + IsaName(isa);
            int best = -2;
            double bd = 0.0, sd = 0.0;
            TableFor(isa)->nearest_two(point.data(), lanes.data(), k, m,
                                       reuse_c, reuse_d2, &best, &bd, &sd);
            EXPECT_EQ(want.best, best) << at;
            EXPECT_TRUE(BitsEqual(want.best_d2, bd)) << at;
            EXPECT_TRUE(BitsEqual(want.second_d2, sd)) << at;
            ASSERT_GE(best, 0) << at;
            ASSERT_LT(best, k) << at;
            EXPECT_TRUE(BitsEqual(scored(best), bd)) << at;
            // The runner-up is some other center's distance, or +inf at
            // k = 1.
            bool runner_up_found = k == 1 && std::isinf(sd);
            for (int c = 0; c < k && !runner_up_found; ++c) {
              runner_up_found = c != best && BitsEqual(scored(c), sd);
            }
            EXPECT_TRUE(runner_up_found) << at;
          }
        }
      }
    }
  }
  // The random substitutes really moved decisions.
  EXPECT_GT(substitute_won, 50);
}

// A padded last group's padding columns are zero: with the point at the
// origin a padded lane sits at distance 0, closer than any real center.
// Padded lanes never enter the decision, so a real center still wins. k = 8,
// 12 and 24 end in a padded group; k = 1, 7 and 17 end in a row-major tail.
TEST(SimdKernels, NearestTwoNeverPicksAPaddedLane) {
  for (const std::size_t m : {1, 16, 17}) {
    for (const int k : {1, 7, 8, 12, 17, 24}) {
      const std::vector<double> point(m, 0.0);
      std::vector<double> centroids(static_cast<std::size_t>(k) * m);
      for (std::size_t i = 0; i < centroids.size(); ++i) {
        centroids[i] = 5.0 + static_cast<double>(i % 7);
      }
      std::vector<double> lanes;
      ToCenterLanes(centroids.data(), k, m, &lanes);
      for (Isa isa : AvailableIsas()) {
        int best = -2;
        double bd = 0.0, sd = 0.0;
        TableFor(isa)->nearest_two(point.data(), lanes.data(), k, m, -1, 0.0,
                                   &best, &bd, &sd);
        const std::string where = "m=" + std::to_string(m) +
                                  " k=" + std::to_string(k) +
                                  " isa=" + IsaName(isa);
        ASSERT_GE(best, 0) << where;
        ASSERT_LT(best, k) << where;
        EXPECT_GE(bd, 25.0) << where;
        EXPECT_GE(sd, 25.0) << where;
        EXPECT_TRUE(BitsEqual(
            SquaredDistance(point.data(), centroids.data() + best * m, m),
            bd))
            << where;
        if (k == 1) {
          EXPECT_EQ(sd, std::numeric_limits<double>::infinity()) << where;
        }
      }
    }
  }
}

// The relocation screen's gains: lanes run across clusters, so the cluster
// counts matter here (all-tail k < 16, one full group, group + tail).
TEST(SimdKernels, RelocationGainsBitIdenticalAcrossIsas) {
  const KernelTable* ref = TableFor(Isa::kScalar);
  ASSERT_NE(ref, nullptr);
  common::Rng rng(0x51D3);
  for (const std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                              std::size_t{19}}) {
    for (const int k : {1, 7, 16, 17, 35}) {
      const std::size_t kk = static_cast<std::size_t>(k);
      const std::vector<double> t = RandomVector(m * kk, &rng);
      const std::vector<double> offset = RandomVector(kk, &rng);
      const std::vector<double> alpha = RandomVector(kk, &rng);
      const std::vector<double> beta = RandomVector(kk, &rng);
      const std::vector<double> omega = RandomVector(kk, &rng);
      const std::vector<double> magnitude = RandomVector(kk, &rng);
      const std::vector<double> norm_t = RandomVector(kk, &rng);
      const std::vector<double> mean = RandomVector(m, &rng);
      const GainColumns cols{t.data(),     offset.data(),    alpha.data(),
                             beta.data(),  omega.data(),     magnitude.data(),
                             norm_t.data()};
      const GainObject obj{mean.data(), 1.5, 2.5, 0.75, 0.5};
      std::vector<double> want(3 * kk);
      ref->relocation_gains(cols, k, m, obj, want.data(), want.data() + kk,
                            want.data() + 2 * kk);
      for (std::size_t c = 0; c < kk; ++c) {  // the documented formula
        double d = 0.0;
        for (std::size_t j = 0; j < m; ++j) d += t[j * kk + c] * mean[j];
        const double g = ((offset[c] + alpha[c] * 1.5) + beta[c] * 2.5) -
                         omega[c] * ((d + d) + 0.75);
        const double r = norm_t[c] + 0.5;
        const double e = ((magnitude[c] + alpha[c] * 1.5) + beta[c] * 2.5) +
                         omega[c] * (r * r);
        EXPECT_NEAR(want[c], d, 1e-12 * (1.0 + std::abs(d)));
        EXPECT_NEAR(want[kk + c], g, 1e-12 * (1.0 + std::abs(g)));
        EXPECT_NEAR(want[2 * kk + c], e, 1e-12 * (1.0 + std::abs(e)));
      }
      for (Isa isa : AvailableIsas()) {
        std::vector<double> got(3 * kk);
        TableFor(isa)->relocation_gains(cols, k, m, obj, got.data(),
                                        got.data() + kk, got.data() + 2 * kk);
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.size() * sizeof(double)))
            << "relocation_gains m=" << m << " k=" << k
            << " isa=" << IsaName(isa);
      }
    }
  }
}

// The relocation screen's selection loop over the lower ends, as
// RelocationScreen::Propose runs it: strict <, ties to the lower target.
struct LoopStay {
  bool finite;
  double lo1;
};

LoopStay SelectionLoopStay(const std::vector<double>& gain,
                           const std::vector<double>& mag, int s,
                           double src_gain, double src_mag, double scale,
                           double floor) {
  LoopStay out{true, std::numeric_limits<double>::infinity()};
  for (int c = 0; c < static_cast<int>(gain.size()); ++c) {
    if (c == s) continue;
    const double g = src_gain + gain[c];
    const double e = scale * (src_mag + mag[c]) + floor;
    out.finite = out.finite && std::isfinite(g) && std::isfinite(e);
    const double lo = g - e;
    if (lo < out.lo1) out.lo1 = lo;
  }
  return out;
}

// Runs relocation_stay on every path and checks it against the selection
// loop: the same flag, and (when finite) the loop's minimum with a zero
// as +0.0, bit for bit; NaN when not.
void ExpectStayMatchesLoop(const std::vector<double>& gain,
                           const std::vector<double>& mag, int s,
                           double src_gain, double src_mag, double scale,
                           double floor, const std::string& where) {
  const int k = static_cast<int>(gain.size());
  const LoopStay want =
      SelectionLoopStay(gain, mag, s, src_gain, src_mag, scale, floor);
  for (Isa isa : AvailableIsas()) {
    double lo = 0.0;
    const bool finite = TableFor(isa)->relocation_stay(
        gain.data(), mag.data(), k, s, src_gain, src_mag, scale, floor, &lo);
    EXPECT_EQ(finite, want.finite) << where << " isa=" << IsaName(isa);
    if (want.finite) {
      EXPECT_TRUE(BitsEqual(want.lo1 + 0.0, lo))
          << where << " isa=" << IsaName(isa);
    } else {
      EXPECT_TRUE(std::isnan(lo)) << where << " isa=" << IsaName(isa);
    }
  }
}

// Source positions worth pinning for k targets: lane 0, mid-group, the
// last target and, when k has a tail past its full lane groups, one inside
// that tail.
std::vector<int> StaySources(int k) {
  std::vector<int> sources = {0, std::min(k - 1, 5), k - 1};
  const int full = k - k % static_cast<int>(kLanes);
  if (full > 0 && full < k) sources.push_back(full + (k - full) / 2);
  return sources;
}

TEST(SimdKernels, RelocationStayMatchesSelectionLoopAcrossIsas) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double scale = 4.0 * 32.0 * DBL_EPSILON;
  const double floor = 4.0 * 32.0 * DBL_MIN;
  common::Rng rng(0x51D5);
  for (const int k : {1, 7, 8, 16, 17, 35}) {
    const std::size_t kk = static_cast<std::size_t>(k);
    for (const int s : StaySources(k)) {
      const std::string at =
          "k=" + std::to_string(k) + " s=" + std::to_string(s);
      // Ordinary values, both signs of minimum.
      for (const double src_gain : {-4.0, 0.5, 4.0}) {
        const std::vector<double> gain = RandomVector(kk, &rng);
        std::vector<double> mag = RandomVector(kk, &rng);
        for (double& e : mag) e = std::fabs(e);
        ExpectStayMatchesLoop(gain, mag, s, src_gain, 1.25, scale, floor,
                              at + " src_gain=" + std::to_string(src_gain));
        // A non-finite value in the source lane takes no part.
        for (const double bad : {nan, inf, -inf}) {
          std::vector<double> g2 = gain, e2 = mag;
          g2[s] = bad;
          e2[s] = bad;
          ExpectStayMatchesLoop(g2, e2, s, src_gain, 1.25, scale, floor,
                                at + " bad source lane");
          if (k > 1) {
            double lo = 0.0;
            EXPECT_TRUE(TableFor(Isa::kScalar)
                            ->relocation_stay(g2.data(), e2.data(), k, s,
                                              src_gain, 1.25, scale, floor,
                                              &lo))
                << at;
          }
        }
      }
      // A NaN or +-inf in any one non-source lane clears the flag.
      for (int c = 0; c < k; ++c) {
        if (c == s) continue;
        for (const double bad : {nan, inf, -inf}) {
          for (const bool in_gain : {true, false}) {
            std::vector<double> gain = RandomVector(kk, &rng);
            std::vector<double> mag = RandomVector(kk, &rng);
            for (double& e : mag) e = std::fabs(e);
            (in_gain ? gain : mag)[c] = bad;
            const std::string where = at + " bad lane " + std::to_string(c) +
                                      (in_gain ? " gain" : " mag");
            ExpectStayMatchesLoop(gain, mag, s, 0.5, 1.25, scale, floor,
                                  where);
            double lo = 0.0;
            EXPECT_FALSE(TableFor(Isa::kScalar)
                             ->relocation_stay(gain.data(), mag.data(), k, s,
                                               0.5, 1.25, scale, floor, &lo))
                << where;
          }
        }
      }
      // Tied zero minima: with scale = floor = 0 every e is +0.0 and the
      // lower end is src_gain + gain[c] = -0.0 + (+-0.0). Whatever the mix
      // of signs, the result is +0.0.
      for (int pattern = 0; pattern < 4; ++pattern) {
        std::vector<double> gain(kk), mag(kk, 1.0);
        for (std::size_t c = 0; c < kk; ++c) {
          const bool negative =
              pattern == 0 || (pattern == 2 && c % 2 == 0) ||
              (pattern == 3 && c % 3 != 0);
          gain[c] = negative ? -0.0 : 0.0;
        }
        if (k > 1) gain[(s + 1) % k] = 1.0;  // one target above the tie
        ExpectStayMatchesLoop(gain, mag, s, -0.0, 1.0, 0.0, 0.0,
                              at + " zero pattern " + std::to_string(pattern));
        if (k > 2) {
          double lo = -1.0;
          ASSERT_TRUE(TableFor(Isa::kScalar)
                          ->relocation_stay(gain.data(), mag.data(), k, s,
                                            -0.0, 1.0, 0.0, 0.0, &lo));
          EXPECT_TRUE(BitsEqual(0.0, lo)) << at;
        }
      }
    }
  }
}

// The selection step of a lane group: the cases where the group's two
// smallest lanes alone do not decide the scan, or decide it only through
// the tie rule. Every path must match the oracle's row-major scan bit for
// bit: ties among all 16 lanes, a NaN lane (which the scan never selects),
// groups whose distances all overflow to +inf, reuse_c in a padded group,
// a later group or tail center tying the first group's best, and zero
// distances, where -0.0 and +0.0 compare equal but differ in bits.
TEST(SimdKernels, NearestTwoSelectionEdgeCases) {
  const KernelTable* ref = TableFor(Isa::kScalar);
  ASSERT_NE(ref, nullptr);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  int cases = 0;
  const auto check = [&](const std::vector<double>& point,
                         const std::vector<double>& centroids, int k,
                         std::size_t m, int reuse_c, double reuse_d2,
                         const std::string& what) {
    ++cases;
    std::vector<double> lanes;
    ToCenterLanes(centroids.data(), k, m, &lanes);
    const oracle::NearestTwoResult want = oracle::NearestTwoScan(
        *ref, point.data(), centroids.data(), k, m, reuse_c, reuse_d2);
    for (Isa isa : AvailableIsas()) {
      const std::string at = what + " k=" + std::to_string(k) +
                             " m=" + std::to_string(m) +
                             " reuse_c=" + std::to_string(reuse_c) +
                             " isa=" + IsaName(isa);
      int best = -2;
      double bd = 0.0, sd = 0.0;
      TableFor(isa)->nearest_two(point.data(), lanes.data(), k, m, reuse_c,
                                 reuse_d2, &best, &bd, &sd);
      EXPECT_EQ(want.best, best) << at;
      EXPECT_TRUE(BitsEqual(want.best_d2, bd)) << at;
      EXPECT_TRUE(BitsEqual(want.second_d2, sd)) << at;
    }
  };
  common::Rng rng(0x51D4);
  for (const std::size_t m : {std::size_t{3}, std::size_t{16}}) {
    const auto center = [&](std::vector<double>* c, int i) {
      return c->data() + static_cast<std::size_t>(i) * m;
    };
    for (const int k : {16, 17, 24, 35}) {
      const std::vector<double> point = RandomVector(m, &rng);
      // All distances tied: k copies of one center.
      const std::vector<double> one = RandomVector(m, &rng);
      std::vector<double> tied;
      for (int c = 0; c < k; ++c) {
        tied.insert(tied.end(), one.begin(), one.end());
      }
      const double tie = ref->squared_distance(point.data(), one.data(), m);
      check(point, tied, k, m, -1, 0.0, "all tied");
      check(point, tied, k, m, 5, tie, "all tied, exact reuse");
      check(point, tied, k, m, k - 1, tie, "all tied, last reused");

      // A NaN lane, in the first group and, past it, in the next group
      // or the tail; and a NaN handed in through reuse_d2.
      for (const int at : {0, 7, 15, k - 1}) {
        std::vector<double> centroids = RandomVector(k * m, &rng);
        center(&centroids, at)[0] = kNan;
        check(point, centroids, k, m, -1, 0.0,
              "NaN at " + std::to_string(at));
        check(point, centroids, k, m, (at + 3) % k, 0.25,
              "NaN at " + std::to_string(at) + ", reuse");
      }
      check(point, RandomVector(k * m, &rng), k, m, 3, kNan, "NaN reuse_d2");

      // Every distance of the first group, or of all groups, overflows
      // to +inf.
      std::vector<double> far = RandomVector(k * m, &rng);
      for (int c = 0; c < 16; ++c) center(&far, c)[0] = 1e300;
      check(point, far, k, m, -1, 0.0, "first group +inf");
      for (int c = 16; c < k; ++c) center(&far, c)[0] = 1e300;
      check(point, far, k, m, -1, 0.0, "all +inf");
      check(point, far, k, m, k / 2, 2.0, "all +inf, finite reuse");

      // A later group's (or the tail's) minimum ties the first group's
      // best: copies of the nearest center of group 1 further up.
      std::vector<double> centroids = RandomVector(k * m, &rng);
      std::copy(point.begin(), point.end(), center(&centroids, 3));
      center(&centroids, 3)[0] += 0.01;
      for (int c = 16; c < k; c += 5) {
        std::copy(center(&centroids, 3), center(&centroids, 3) + m,
                  center(&centroids, c));
      }
      check(point, centroids, k, m, -1, 0.0, "later group ties the best");
      check(point, centroids, k, m, 3,
            ref->squared_distance(point.data(), center(&centroids, 3), m),
            "later group ties the reused best");

      // Zero distances: the point sits on center 9, and reuse_d2 = -0.0
      // ties it with the other zero sign (the scan keeps the first).
      std::copy(point.begin(), point.end(), center(&centroids, 9));
      check(point, centroids, k, m, -1, 0.0, "zero distance");
      check(point, centroids, k, m, 2, -0.0, "-0.0 before +0.0");
      check(point, centroids, k, m, 12, -0.0, "-0.0 after +0.0");
    }
    // reuse_c inside a padded group (k = 8: the only group; k = 24: the
    // second one), with the exact distance, a winning and a losing value.
    for (const int k : {8, 24}) {
      const std::vector<double> point = RandomVector(m, &rng);
      const std::vector<double> centroids = RandomVector(k * m, &rng);
      for (const int reuse_c : {k - 8, k - 5, k - 1}) {
        const double exact = ref->squared_distance(
            point.data(), centroids.data() + reuse_c * m, m);
        for (const double reuse_d2 : {exact, 1e-3, 1e9}) {
          check(point, centroids, k, m, reuse_c, reuse_d2, "padded reuse");
        }
      }
    }
  }
  EXPECT_GT(cases, 150);
}

TEST(SimdKernels, NearestTwoMatchesHistoricalScanSemantics) {
  // k == 1: no runner-up exists, second_d2 is +inf (the value the Hamerly
  // lower bound consumes as "prune nothing").
  const std::vector<double> point = {1.0, 2.0};
  const std::vector<double> one = {0.0, 0.0};
  std::vector<double> lanes;
  ToCenterLanes(one.data(), 1, 2, &lanes);
  int best = -1;
  double bd = 0.0, sd = 0.0;
  NearestTwo(point.data(), lanes.data(), 1, 2, -1, 0.0, &best, &bd, &sd);
  EXPECT_EQ(best, 0);
  EXPECT_EQ(bd, 5.0);
  EXPECT_EQ(sd, std::numeric_limits<double>::infinity());

  // All three centers are at distance 2: the tie breaks toward the lowest
  // center index.
  const std::vector<double> tied = {0.0, 3.0, 2.0, 1.0, 2.0, 1.0};
  ToCenterLanes(tied.data(), 3, 2, &lanes);
  NearestTwo(point.data(), lanes.data(), 3, 2, -1, 0.0, &best, &bd, &sd);
  EXPECT_EQ(best, 0);
  EXPECT_EQ(bd, 2.0);
  EXPECT_EQ(sd, 2.0);

  // reuse_c substitutes the cached distance without reordering decisions.
  NearestTwo(point.data(), lanes.data(), 3, 2, 2, 0.5, &best, &bd, &sd);
  EXPECT_EQ(best, 2);
  EXPECT_EQ(bd, 0.5);
  EXPECT_EQ(sd, 2.0);

  // The same ties past the first group, into a row-major tail (k = 18)
  // and into a padded group (k = 24): k copies of one center, the tie
  // still goes to center 0 and the runner-up is the same distance.
  for (const int k : {18, 24}) {
    std::vector<double> many;
    for (int c = 0; c < k; ++c) many.insert(many.end(), {0.0, 3.0});
    ToCenterLanes(many.data(), k, 2, &lanes);
    NearestTwo(point.data(), lanes.data(), k, 2, -1, 0.0, &best, &bd, &sd);
    EXPECT_EQ(best, 0) << "k=" << k;
    EXPECT_EQ(bd, 2.0) << "k=" << k;
    EXPECT_EQ(sd, 2.0) << "k=" << k;
    NearestTwo(point.data(), lanes.data(), k, 2, k - 1, 0.5, &best, &bd,
               &sd);
    EXPECT_EQ(best, k - 1) << "k=" << k;
    EXPECT_EQ(bd, 0.5) << "k=" << k;
    EXPECT_EQ(sd, 2.0) << "k=" << k;
  }
}

data::UncertainDataset SmallDataset(std::size_t n, std::size_t m, int classes,
                                    uint64_t seed) {
  data::MixtureParams params;
  params.n = n;
  params.dims = m;
  params.classes = classes;
  const data::DeterministicDataset d =
      data::MakeGaussianMixture(params, seed, "simd");
  data::UncertaintyParams up;
  up.family = data::PdfFamily::kNormal;
  return data::UncertaintyModel(d, up, seed + 1).Uncertain();
}

// Pairwise tile producers under each forced ISA: the ED^ tiles a
// PairwiseStore backend materializes must not depend on the dispatch path.
TEST(SimdKernels, PairwiseTilesBitIdenticalUnderForcedIsas) {
  IsaGuard guard;
  const auto ds = SmallDataset(60, 17, 3, 77);  // 17 = one group + tail
  const auto kernel = kernels::PairwiseKernel::ClosedFormED2(ds.objects());
  const std::size_t n = ds.size();
  engine::EngineConfig config;
  config.num_threads = 2;
  config.block_size = 16;
  const engine::Engine eng(config);

  ASSERT_TRUE(ForceIsa(Isa::kScalar));
  std::vector<double> want_row(8 * n), want_gather(3 * n), want_block(5 * 5);
  // Consecutive rows, the shape the recomputing stores stream in.
  const std::vector<std::size_t> run = {20, 21, 22, 23, 24, 25, 26, 27};
  kernels::FillGatherTile(eng, kernel, run, want_row.data());
  const std::vector<std::size_t> rows = {3, 41, 59};
  kernels::FillGatherTile(eng, kernel, rows, want_gather.data());
  const std::vector<std::size_t> ids = {2, 11, 23, 37, 53};
  kernels::FillSymmetricBlock(eng, kernel, ids, want_block.data());

  for (Isa isa : AvailableIsas()) {
    ASSERT_TRUE(ForceIsa(isa));
    std::vector<double> row(8 * n, -1.0), gather(3 * n, -1.0);
    std::vector<double> block(5 * 5, -1.0);
    kernels::FillGatherTile(eng, kernel, run, row.data());
    kernels::FillGatherTile(eng, kernel, rows, gather.data());
    kernels::FillSymmetricBlock(eng, kernel, ids, block.data());
    EXPECT_EQ(0, std::memcmp(row.data(), want_row.data(),
                             row.size() * sizeof(double)))
        << "row tile isa=" << IsaName(isa);
    EXPECT_EQ(0, std::memcmp(gather.data(), want_gather.data(),
                             gather.size() * sizeof(double)))
        << "gather tile isa=" << IsaName(isa);
    EXPECT_EQ(0, std::memcmp(block.data(), want_block.data(),
                             block.size() * sizeof(double)))
        << "symmetric block isa=" << IsaName(isa);
  }
}

// Serves a MomentMatrix's rows through the chunked MomentView interface —
// the same plumbing the mmap-backed .umom store uses, minus the I/O.
class FakeChunkSource : public uncertain::MomentChunkSource {
 public:
  FakeChunkSource(const uncertain::MomentMatrix& mm, std::size_t chunk_rows)
      : mm_(mm), chunk_rows_(chunk_rows) {
    const std::size_t chunks = (mm.size() + chunk_rows - 1) / chunk_rows;
    tv_chunks_.resize(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      for (std::size_t r = c * chunk_rows;
           r < std::min(mm.size(), (c + 1) * chunk_rows); ++r) {
        tv_chunks_[c].push_back(mm.total_variance(r));
      }
    }
  }

  uncertain::MomentChunkPtrs ChunkData(std::size_t chunk) const override {
    const std::size_t row = chunk * chunk_rows_;
    uncertain::MomentChunkPtrs ptrs;
    ptrs.mean = mm_.mean(row).data();
    ptrs.mu2 = mm_.second_moment(row).data();
    ptrs.var = mm_.variance(row).data();
    ptrs.total_var = tv_chunks_[chunk].data();
    return ptrs;
  }

 private:
  const uncertain::MomentMatrix& mm_;
  std::size_t chunk_rows_;
  std::vector<std::vector<double>> tv_chunks_;
};

// The moment kernels consume chunked views byte-for-byte like flat ones,
// under every forced ISA: dispatch path x storage shape is a 2D grid of
// identical results.
TEST(SimdKernels, ChunkedMomentViewBitIdenticalUnderForcedIsas) {
  IsaGuard guard;
  const auto ds = SmallDataset(96, 33, 4, 91);  // 33 = two groups + tail
  const uncertain::MomentMatrix& mm = ds.moments();
  const FakeChunkSource source(mm, 8);
  const uncertain::MomentView chunked(mm.size(), mm.dims(), 8, &source);
  engine::EngineConfig config;
  config.num_threads = 2;
  config.block_size = 16;
  const engine::Engine eng(config);

  ASSERT_TRUE(ForceIsa(Isa::kScalar));
  std::vector<double> centroids(4 * mm.dims());
  for (std::size_t j = 0; j < centroids.size(); ++j) {
    centroids[j] = mm.mean(j % mm.size())[j % mm.dims()];
  }
  std::vector<int> want_labels(mm.size(), -1);
  oracle::AssignNearest(eng, mm.view(), centroids, 4, want_labels);
  std::vector<double> want_sums;
  std::vector<std::size_t> want_counts;
  kernels::SumMeansByLabel(eng, mm.view(), want_labels, 4, &want_sums,
                           &want_counts);
  const double want_obj =
      kernels::AssignmentObjective(eng, mm.view(), want_labels, centroids);

  for (Isa isa : AvailableIsas()) {
    ASSERT_TRUE(ForceIsa(isa));
    for (const bool use_chunked : {false, true}) {
      const uncertain::MomentView view = use_chunked ? chunked : mm.view();
      std::vector<int> labels(mm.size(), -1);
      oracle::AssignNearest(eng, view, centroids, 4, labels);
      EXPECT_EQ(labels, want_labels)
          << "isa=" << IsaName(isa) << " chunked=" << use_chunked;
      std::vector<double> sums;
      std::vector<std::size_t> counts;
      kernels::SumMeansByLabel(eng, view, labels, 4, &sums, &counts);
      EXPECT_EQ(counts, want_counts) << "isa=" << IsaName(isa);
      ASSERT_EQ(sums.size(), want_sums.size());
      EXPECT_EQ(0, std::memcmp(sums.data(), want_sums.data(),
                               sums.size() * sizeof(double)))
          << "sums isa=" << IsaName(isa) << " chunked=" << use_chunked;
      const double obj =
          kernels::AssignmentObjective(eng, view, labels, centroids);
      EXPECT_TRUE(BitsEqual(want_obj, obj))
          << "objective isa=" << IsaName(isa) << " chunked=" << use_chunked;
    }
  }
}

// The CK-means bound-pruned sweep routes its center scans through the
// dispatched center-lane nearest_two: forcing any ISA must reproduce the
// forced-scalar clustering bit-for-bit, including the pruning counters (the
// pruning decisions are a pure function of the distances).
TEST(SimdKernels, CkmeansReducedSweepBitIdenticalUnderForcedIsas) {
  IsaGuard guard;
  const auto ds = SmallDataset(300, 9, 4, 57);
  engine::EngineConfig config;
  config.num_threads = 2;
  config.block_size = 64;
  const engine::Engine eng(config);

  const CkMeans::Params p;
  ASSERT_TRUE(ForceIsa(Isa::kScalar));
  const auto want = CkMeans::RunOnMoments(ds.moments(), 4, 7, p, eng);
  for (Isa isa : AvailableIsas()) {
    ASSERT_TRUE(ForceIsa(isa));
    const auto out = CkMeans::RunOnMoments(ds.moments(), 4, 7, p, eng);
    EXPECT_EQ(out.labels, want.labels) << "isa=" << IsaName(isa);
    EXPECT_TRUE(BitsEqual(want.objective, out.objective))
        << "isa=" << IsaName(isa);
    EXPECT_EQ(out.iterations, want.iterations) << IsaName(isa);
    EXPECT_EQ(out.center_distance_evals, want.center_distance_evals)
        << "isa=" << IsaName(isa);
    EXPECT_EQ(out.bounds_skipped, want.bounds_skipped)
        << "isa=" << IsaName(isa);
  }
}

// The SIMD path belongs to the process: building an Engine, serial or
// pooled, must leave a forced path in place (each service job builds its
// own Engine while others run).
TEST(SimdKernels, EngineConstructionLeavesDispatchAlone) {
  IsaGuard guard;
  ASSERT_TRUE(ForceIsa(Isa::kScalar));
  for (int threads : {1, 4}) {
    engine::EngineConfig config;
    config.num_threads = threads;
    const engine::Engine eng(config);
    EXPECT_EQ(ActiveIsa(), Isa::kScalar) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace uclust::clustering::simd
