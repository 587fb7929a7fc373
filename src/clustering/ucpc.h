// UCPC — U-Centroid-based Partitional Clustering (Algorithm 1; the paper's
// primary contribution). Minimizes sum_C J(C) where J(C) is the sum of
// expected distances between cluster members and the cluster's U-centroid,
// computed in closed form (Theorem 3) with O(m) relocation updates
// (Corollary 1). Complexity O(I k n m) (Proposition 5).
#ifndef UCLUST_CLUSTERING_UCPC_H_
#define UCLUST_CLUSTERING_UCPC_H_

#include "clustering/local_search.h"
#include "clustering/moment_clusterer.h"

namespace uclust::clustering {

/// The UCPC algorithm.
class Ucpc final : public MomentClusterer {
 public:
  /// Tuning knobs.
  struct Params {
    int max_passes = 100;  ///< Cap on relocation passes.
  };

  Ucpc() = default;
  explicit Ucpc(const Params& params) : params_(params) {}

  std::string name() const override { return "UCPC"; }

  /// Kernel entry point for pre-packed moment statistics (used by the
  /// scalability benches; numerically identical to Cluster()). Results are
  /// bit-identical for any engine thread count.
  static LocalSearchOutcome RunOnMoments(const uncertain::MomentView& mm,
                                         int k, uint64_t seed,
                                         const Params& params,
                                         const engine::Engine& eng =
                                             engine::Engine::Serial());
  /// Kernel entry point with default parameters.
  static LocalSearchOutcome RunOnMoments(const uncertain::MomentView& mm,
                                         int k, uint64_t seed) {
    return RunOnMoments(mm, k, seed, Params());
  }

 private:
  ClusteringResult RunOnline(const uncertain::MomentView& mm, int k,
                             uint64_t seed) const override;

  Params params_;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_UCPC_H_
