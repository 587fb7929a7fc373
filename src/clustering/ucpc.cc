#include "clustering/ucpc.h"

namespace uclust::clustering {

LocalSearchOutcome Ucpc::RunOnMoments(const uncertain::MomentView& mm,
                                      int k, uint64_t seed,
                                      const Params& params,
                                      const engine::Engine& eng) {
  common::Rng rng(seed);
  LocalSearchParams ls;
  ls.objective = ObjectiveKind::kUcpc;
  ls.max_passes = params.max_passes;
  return RunLocalSearch(mm, k, ls, &rng, eng);
}

ClusteringResult Ucpc::RunOnline(const uncertain::MomentView& mm, int k,
                                 uint64_t seed) const {
  return LocalSearchResult(RunOnMoments(mm, k, seed, params_, engine()), k);
}

}  // namespace uclust::clustering
