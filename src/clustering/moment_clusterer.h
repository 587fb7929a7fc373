// The centroid algorithms' two phases (Algorithm 1): offline, the moment
// statistics of line 1; online, a run that reads nothing but a MomentView.
// UCPC, MMVar and CK-means derive from MomentClusterer, which times both
// phases for all three; each algorithm supplies only its online run.
//
// Callers that already hold moments (a cached or mapped MomentStore) run
// the online phase alone through ClusterMoments, and OpenMomentStore is
// the one path from a .ubin file to the store such a run reads: the
// file-backed CK-means driver and the service's uncached jobs both open
// their moments through it.
#ifndef UCLUST_CLUSTERING_MOMENT_CLUSTERER_H_
#define UCLUST_CLUSTERING_MOMENT_CLUSTERER_H_

#include <cstdint>
#include <string>

#include "clustering/clusterer.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"

namespace uclust::clustering {

/// A clustering algorithm whose online phase reads only moment statistics.
class MomentClusterer : public Clusterer {
 public:
  /// Times data.moments() as offline_ms, then runs ClusterMoments on them.
  ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                           uint64_t seed) const final;

  /// The online phase on pre-packed moments of any backend, on the
  /// installed engine: online_ms is the run's time, offline_ms `offline`'s
  /// reading on entry (a stopwatch started when producing `mm` began).
  /// Requires 1 <= k <= mm.size(). Bit-identical to Cluster() on the
  /// dataset `mm` was packed from, at any engine thread count.
  ClusteringResult ClusterMoments(const uncertain::MomentView& mm, int k,
                                  uint64_t seed,
                                  const common::Stopwatch& offline) const;

 protected:
  /// The untimed online run on engine().
  virtual ClusteringResult RunOnline(const uncertain::MomentView& mm, int k,
                                     uint64_t seed) const = 0;
};

/// InvalidArgument naming `what` unless 1 <= k <= n: k must name 1..n
/// distinct objects for the seeding to pick from.
common::Status CheckK(const std::string& what, int k, std::size_t n);

/// Opens the moments of the .ubin at `path` for a k-cluster run. k is
/// checked against the header's n before anything is decoded; then
/// io::StreamMomentStoreFromFile keeps the columns resident when
/// io::ResidentMomentsFit holds for eng's budget, and otherwise builds or
/// reuses the mapped .umom sidecar at `moments_path` ("" = path + ".umom").
common::Result<uncertain::MomentStorePtr> OpenMomentStore(
    const std::string& path, int k, const engine::Engine& eng,
    const std::string& moments_path = "");

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_MOMENT_CLUSTERER_H_
