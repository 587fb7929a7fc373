#include "clustering/moment_clusterer.h"

#include "io/dataset_reader.h"
#include "io/ingest.h"

namespace uclust::clustering {

ClusteringResult MomentClusterer::Cluster(const data::UncertainDataset& data,
                                          int k, uint64_t seed) const {
  // Line 1 of Algorithm 1 (moment precomputation) is the offline phase.
  common::Stopwatch offline;
  return ClusterMoments(data.moments().view(), k, seed, offline);
}

ClusteringResult MomentClusterer::ClusterMoments(
    const uncertain::MomentView& mm, int k, uint64_t seed,
    const common::Stopwatch& offline) const {
  const double offline_ms = offline.ElapsedMs();
  common::Stopwatch online;
  ClusteringResult result = RunOnline(mm, k, seed);
  result.online_ms = online.ElapsedMs();
  result.offline_ms = offline_ms;
  return result;
}

common::Status CheckK(const std::string& what, int k, std::size_t n) {
  if (k < 1 || n < static_cast<std::size_t>(k)) {
    return common::Status::InvalidArgument(
        what + ": need 1 <= k <= n, got k=" + std::to_string(k) + ", n=" +
        std::to_string(n));
  }
  return common::Status::Ok();
}

common::Result<uncertain::MomentStorePtr> OpenMomentStore(
    const std::string& path, int k, const engine::Engine& eng,
    const std::string& moments_path) {
  {
    io::BinaryDatasetReader header;
    UCLUST_RETURN_NOT_OK(header.Open(path));
    UCLUST_RETURN_NOT_OK(CheckK(path, k, header.size()));
  }
  return io::StreamMomentStoreFromFile(path, eng, moments_path);
}

}  // namespace uclust::clustering
