// Common interface implemented by every clustering algorithm in the library,
// plus the shared result type and small label utilities.
#ifndef UCLUST_CLUSTERING_CLUSTERER_H_
#define UCLUST_CLUSTERING_CLUSTERER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "engine/engine.h"

namespace uclust::clustering {

/// Outcome of one clustering run.
struct ClusteringResult {
  /// Cluster id per object, in [0, clusters_found).
  std::vector<int> labels;
  /// Number of clusters requested (density-based algorithms may differ).
  int k_requested = 0;
  /// Number of distinct clusters in `labels`.
  int clusters_found = 0;
  /// Number of outer iterations / passes until convergence.
  int iterations = 0;
  /// Final value of the algorithm's own objective (NaN when undefined, e.g.
  /// for density-based algorithms).
  double objective = 0.0;
  /// Wall-clock time of the online clustering phase, in milliseconds
  /// (excludes offline precomputation such as sample drawing or pairwise
  /// distance tables, matching the paper's measurement protocol).
  double online_ms = 0.0;
  /// Wall-clock time of the offline phase, in milliseconds.
  double offline_ms = 0.0;
  /// Number of expensive (sample-integrated) expected-distance evaluations;
  /// the quantity the pruning techniques minimize. 0 for closed-form
  /// algorithms.
  int64_t ed_evaluations = 0;
  /// Objects labeled as noise before noise-policy mapping (density-based
  /// algorithms only).
  int noise_objects = 0;
  /// PairwiseStore backend the run used ("dense", "tiled");
  /// empty for algorithms without a pairwise phase.
  std::string pairwise_backend;
  /// Peak bytes of table storage materialized at any one time: the
  /// PairwiseStore's dense table and streaming scratch, and the base rows
  /// UAHC's NN-chain holds. 0 without a pairwise phase. Not included: other
  /// algorithm-side working state — in particular UAHC's Lance-Williams
  /// overlay, which holds one distance row per alive merge-product cluster
  /// (see uahc.h).
  std::size_t table_bytes_peak = 0;
  /// Total pairwise kernel evaluations the run performed (closed-form and
  /// sampled alike — unlike ed_evaluations, which counts only sample
  /// integrations). The recompute cost the budgeted sweeps minimize. 0
  /// without a pairwise phase.
  int64_t pair_evaluations = 0;
  /// Rows served without kernel work: dense-table copies, and UAHC's
  /// reuses of the rows its NN-chain holds.
  int64_t tile_warm_hits = 0;
  /// Rows the PairwiseStore had to compute.
  int64_t tile_warm_misses = 0;
  /// Sweep pairs served as 0 because cheap spatial bounds ruled them out,
  /// instead of evaluated (see clustering::PairwiseBoundIndex).
  int64_t pairs_pruned = 0;
  /// Closed-form object-to-center distance evaluations the centroid methods
  /// performed (the ||mu(o) - c||^2 computations of the UK-means assignment
  /// sweeps — the quantity the CK-means bound pruning minimizes). Together
  /// with bounds_skipped the pair accounts for every (object, center) slot:
  /// center_distance_evals + bounds_skipped == sweeps * n * k on the
  /// CK-means path, where sweeps = iterations + 1 when the run converged
  /// before the cap (the final no-change sweep still runs) and = iterations
  /// at the cap. Center-to-center drift/separation work is not counted.
  /// 0 for algorithms without a centroid assignment sweep.
  int64_t center_distance_evals = 0;
  /// (object, center) distance evaluations the CK-means Hamerly/Elkan bounds
  /// proved unnecessary and skipped. 0 when bound pruning is off.
  int64_t bounds_skipped = 0;
  /// Candidate pairs the spatial index returned to the candidate-driven
  /// sweeps (clustering::SpatialIndex range/nearest queries) — the pairs
  /// that still reached the per-pair bound test or kernel. 0 when the index
  /// is off or the algorithm has no indexed sweep.
  int64_t index_candidates = 0;
  /// Sweep pairs the spatial index excluded wholesale — pairs an all-pairs
  /// sweep would have bound-tested but a candidate query never touched.
  /// 0 when the index is off.
  int64_t pairs_pruned_by_index = 0;
  /// Box-distance bound computations the spatial index performed inside its
  /// queries (node MBR tests plus per-item tests). The indexed analogue of
  /// the all-pairs sweep's n*(n-1)/2 bound tests; the CI index gate
  /// compares index_bound_tests + index_candidates against that floor.
  int64_t index_bound_tests = 0;
};

/// Abstract clustering algorithm over uncertain datasets.
class Clusterer {
 public:
  virtual ~Clusterer();

  /// Algorithm display name (e.g. "UCPC", "UK-means").
  virtual std::string name() const = 0;

  /// Clusters `data` into (about) `k` clusters; `seed` drives every random
  /// choice so runs are reproducible.
  virtual ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                                   uint64_t seed) const = 0;

  /// Installs the execution engine used by the compute kernels (serial by
  /// default). Results are bit-identical for any engine thread count.
  void set_engine(const engine::Engine& eng) { engine_ = eng; }
  /// The engine the algorithm dispatches its compute through.
  const engine::Engine& engine() const { return engine_; }

 private:
  engine::Engine engine_;
};

/// Number of distinct non-negative labels.
int CountClusters(const std::vector<int>& labels);

/// Sizes of clusters 0..k-1 (labels outside the range are ignored).
std::vector<std::size_t> ClusterSizes(const std::vector<int>& labels, int k);

/// Remaps labels onto 0..k'-1 preserving first-appearance order; negative
/// labels (noise) are left untouched.
std::vector<int> RelabelConsecutive(const std::vector<int>& labels);

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_CLUSTERER_H_
