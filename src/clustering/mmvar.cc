#include "clustering/mmvar.h"

namespace uclust::clustering {

LocalSearchOutcome Mmvar::RunOnMoments(const uncertain::MomentView& mm,
                                       int k, uint64_t seed,
                                       const Params& params,
                                       const engine::Engine& eng) {
  common::Rng rng(seed);
  LocalSearchParams ls;
  ls.objective = ObjectiveKind::kMmvar;
  ls.max_passes = params.max_passes;
  return RunLocalSearch(mm, k, ls, &rng, eng);
}

ClusteringResult Mmvar::RunOnline(const uncertain::MomentView& mm, int k,
                                  uint64_t seed) const {
  return LocalSearchResult(RunOnMoments(mm, k, seed, params_, engine()), k);
}

}  // namespace uclust::clustering
