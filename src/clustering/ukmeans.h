// UK-means in the efficient formulation of Lee, Kao & Cheng (ICDM-W 2007):
// because ED(o, c) = ED(o, mu(o)) + ||c - mu(o)||^2 (Eq. 8) and the first
// term is constant per object, the algorithm reduces to Lloyd's K-means on
// the objects' expected-value vectors.
//
// Cost model: the direct sweeps here are O(I k n m) — every (object,
// center) pair is evaluated every iteration. Cluster() runs the CK-means
// fast path (clustering/ckmeans.h) instead, which copies the reduced
// representation out of the moments once and prunes most of those
// evaluations with Hamerly/Elkan bounds, making late iterations O(n m) —
// bit for bit the same labels, objective, and iteration count.
// RunOnMoments runs the direct sweeps — it is the reference the CK-means
// bit-identity tests compare against.
#ifndef UCLUST_CLUSTERING_UKMEANS_H_
#define UCLUST_CLUSTERING_UKMEANS_H_

#include "clustering/clusterer.h"
#include "clustering/init.h"
#include "uncertain/moments.h"

namespace uclust::clustering {

/// The (fast) UK-means algorithm.
class Ukmeans final : public Clusterer {
 public:
  /// Tuning knobs.
  struct Params {
    int max_iters = 100;  ///< Cap on Lloyd iterations.
    /// Seeding: Forgy (random distinct objects, the paper's choice) or
    /// D^2-weighted (library extension).
    InitStrategy init = InitStrategy::kRandom;
  };

  /// Outcome of the kernel (mirrors LocalSearchOutcome for uniformity).
  struct Outcome {
    std::vector<int> labels;
    double objective = 0.0;  ///< sum_C J_UK(C) = sum_o ED(o, C_UK(o)).
    int iterations = 0;
    /// ||mu(o) - c||^2 evaluations of the assignment sweeps — exactly
    /// sweeps * n * k on this direct path, where sweeps = iterations + 1
    /// on a converged run (the final no-change sweep executes before the
    /// loop breaks) and = iterations at the max_iters cap. The baseline the
    /// CK-means bound pruning is measured against.
    int64_t center_distance_evals = 0;
  };

  Ukmeans() = default;
  explicit Ukmeans(const Params& params) : params_(params) {}

  std::string name() const override { return "UK-means"; }
  ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                           uint64_t seed) const override;

  /// Kernel entry point for pre-packed moment statistics. `eng` dispatches
  /// the assignment/update sweeps; the labels and objective are bit-identical
  /// for any engine thread count.
  static Outcome RunOnMoments(const uncertain::MomentView& mm, int k,
                              uint64_t seed, const Params& params,
                              const engine::Engine& eng =
                                  engine::Engine::Serial());
  /// Kernel entry point with default parameters.
  static Outcome RunOnMoments(const uncertain::MomentView& mm, int k,
                              uint64_t seed) {
    return RunOnMoments(mm, k, seed, Params());
  }

 private:
  Params params_;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_UKMEANS_H_
