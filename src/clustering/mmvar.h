// MMVar (Gullo, Ponti & Tagarelli, ICDM 2010): partitional clustering that
// minimizes the variance of cluster mixture-model centroids (Eq. 11),
// implemented as the same relocation local search as UCPC but driven by
// J_MM(C) = sigma^2(C_MM). Complexity O(I k n m).
#ifndef UCLUST_CLUSTERING_MMVAR_H_
#define UCLUST_CLUSTERING_MMVAR_H_

#include "clustering/local_search.h"
#include "clustering/moment_clusterer.h"

namespace uclust::clustering {

/// The MMVar algorithm.
class Mmvar final : public MomentClusterer {
 public:
  /// Tuning knobs.
  struct Params {
    int max_passes = 100;  ///< Cap on relocation passes.
  };

  Mmvar() = default;
  explicit Mmvar(const Params& params) : params_(params) {}

  std::string name() const override { return "MMVar"; }

  /// Kernel entry point for pre-packed moment statistics. Results are
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

#endif  // UCLUST_CLUSTERING_MMVAR_H_
