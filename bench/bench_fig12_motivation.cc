// Reproduces the motivating scenarios of Figures 1 and 2.
//
// Figure 1 — clusters with the same central tendency but different
// variances: the UK-means compactness criterion J_UK barely separates them
// (only via the variance-induced second-moment shift), whereas UCPC's J adds
// the within-cluster variance explicitly and prefers the compact cluster
// decisively. A full clustering run shows UK-means splitting the data by
// chance while UCPC consistently separates low- from high-variance objects.
//
// Figure 2 — objects with different central tendency: a variance-only
// criterion (Theorem 2: the U-centroid variance, i.e. what "minimize
// centroid variance" would optimize) prefers a *scattered* cluster of
// near-deterministic objects over a *tight* cluster of moderately uncertain
// ones; J ranks them correctly.
#include <cstdio>
#include <vector>

#include "clustering/ckmeans.h"
#include "clustering/cluster_stats.h"
#include "clustering/ucpc.h"
#include "common/math_utils.h"
#include "data/dataset.h"
#include "data/uncertainty_model.h"
#include "eval/external.h"

namespace {
using namespace uclust;  // NOLINT: bench brevity
using clustering::ClusterMoments;
using uncertain::MomentMatrix;
using uncertain::PdfPtr;
using uncertain::UncertainObject;

UncertainObject Make2D(data::PdfFamily family, double x, double y,
                       double scale) {
  std::vector<PdfPtr> dims;
  dims.push_back(data::MakeUncertainPdf(family, x, scale));
  dims.push_back(data::MakeUncertainPdf(family, y, scale));
  return UncertainObject(std::move(dims));
}

ClusterMoments Aggregate(const MomentMatrix& mm) {
  ClusterMoments c(mm.dims());
  for (std::size_t i = 0; i < mm.size(); ++i) c.Add(mm, i);
  return c;
}

}  // namespace

int main() {
  std::printf("=== Figures 1 & 2: why the U-centroid objective is needed "
              "===\n\n");

  // ---------------- Figure 1 ----------------
  // Same expected positions, different variances.
  std::vector<UncertainObject> compact, spread;
  const double pos[][2] = {{0.0, 0.0}, {0.6, 0.1}, {0.2, 0.7}, {0.8, 0.8}};
  for (const auto& p : pos) {
    compact.push_back(Make2D(data::PdfFamily::kNormal, p[0], p[1], 0.05));
    spread.push_back(Make2D(data::PdfFamily::kNormal, p[0], p[1], 0.80));
  }
  const auto mm_c = MomentMatrix::FromObjects(compact);
  const auto mm_s = MomentMatrix::FromObjects(spread);
  const ClusterMoments agg_c = Aggregate(mm_c);
  const ClusterMoments agg_s = Aggregate(mm_s);

  std::printf("[Figure 1] two clusters, identical expected positions:\n");
  std::printf("%28s %14s %14s\n", "", "low-variance", "high-variance");
  std::printf("%-28s %14.4f %14.4f\n", "sum of member variances",
              common::Sum(agg_c.sum_var()), common::Sum(agg_s.sum_var()));
  const double juk_c = clustering::UkmeansObjective(agg_c);
  const double juk_s = clustering::UkmeansObjective(agg_s);
  const double j_c = clustering::UcpcObjective(agg_c);
  const double j_s = clustering::UcpcObjective(agg_s);
  std::printf("%-28s %14.4f %14.4f\n", "J_UK (geometry part only)",
              juk_c - common::Sum(agg_c.sum_var()),
              juk_s - common::Sum(agg_s.sum_var()));
  std::printf("%-28s %14.4f %14.4f\n", "J_UK", juk_c, juk_s);
  std::printf("%-28s %14.4f %14.4f\n", "J (UCPC)", j_c, j_s);
  std::printf("  -> relative preference for the compact cluster: "
              "J_UK x%.2f vs J x%.2f\n\n",
              juk_s / juk_c, j_s / j_c);

  // Clustering demonstration: 16 low-variance + 16 high-variance objects at
  // interleaved positions; the informative signal is variance, not position.
  std::vector<UncertainObject> objects;
  std::vector<int> truth;
  for (int i = 0; i < 16; ++i) {
    const double x = 0.1 + 0.05 * (i % 4);
    const double y = 0.1 + 0.05 * (i / 4);
    objects.push_back(Make2D(data::PdfFamily::kNormal, x, y, 0.02));
    truth.push_back(0);
    objects.push_back(Make2D(data::PdfFamily::kNormal, x + 0.025, y, 1.5));
    truth.push_back(1);
  }
  const data::UncertainDataset mixed("fig1", std::move(objects), truth, 2);
  const clustering::Ucpc ucpc;
  const clustering::CkMeans ukm;
  double f_ucpc = 0.0, f_ukm = 0.0;
  const int runs = 20;
  for (int r = 0; r < runs; ++r) {
    f_ucpc += eval::FMeasure(truth, ucpc.Cluster(mixed, 2, r).labels);
    f_ukm += eval::FMeasure(truth, ukm.Cluster(mixed, 2, r).labels);
  }
  std::printf("  clustering interleaved low/high-variance objects "
              "(avg F over %d runs):\n", runs);
  std::printf("    UK-means F = %.3f   (blind to variance: splits by "
              "position)\n", f_ukm / runs);
  std::printf("    UCPC     F = %.3f   (separates by uncertainty "
              "structure)\n\n", f_ucpc / runs);

  // ---------------- Figure 2 ----------------
  // (a) scattered, near-deterministic objects; (b) tight, moderately
  // uncertain objects.
  std::vector<UncertainObject> scattered, tight;
  scattered.push_back(Make2D(data::PdfFamily::kNormal, -3.0, -3.0, 0.01));
  scattered.push_back(Make2D(data::PdfFamily::kNormal, 3.0, -3.0, 0.01));
  scattered.push_back(Make2D(data::PdfFamily::kNormal, 0.0, 3.0, 0.01));
  tight.push_back(Make2D(data::PdfFamily::kNormal, 0.00, 0.00, 0.40));
  tight.push_back(Make2D(data::PdfFamily::kNormal, 0.05, 0.05, 0.40));
  tight.push_back(Make2D(data::PdfFamily::kNormal, -0.05, 0.05, 0.40));
  const ClusterMoments agg_a = Aggregate(MomentMatrix::FromObjects(scattered));
  const ClusterMoments agg_b = Aggregate(MomentMatrix::FromObjects(tight));
  const double n2 = 9.0;  // |C|^2
  std::printf("[Figure 2] variance-only criterion vs J:\n");
  std::printf("%-34s %12s %12s\n", "", "scattered(a)", "tight(b)");
  std::printf("%-34s %12.4f %12.4f\n",
              "U-centroid variance (Theorem 2)",
              common::Sum(agg_a.sum_var()) / n2,
              common::Sum(agg_b.sum_var()) / n2);
  std::printf("%-34s %12.4f %12.4f\n", "J (UCPC)",
              clustering::UcpcObjective(agg_a),
              clustering::UcpcObjective(agg_b));
  std::printf("  -> the variance-only criterion prefers (a) [WRONG]; "
              "J prefers (b) [RIGHT]\n");
  return 0;
}
