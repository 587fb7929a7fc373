// The relocation local search of Algorithm 1, shared by UCPC and MMVar (and
// usable with the UK-means objective for ablations): repeatedly move each
// object to the cluster yielding the largest decrease of the global
// objective, exploiting the O(m) add/remove evaluations of Corollary 1.
#ifndef UCLUST_CLUSTERING_LOCAL_SEARCH_H_
#define UCLUST_CLUSTERING_LOCAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "clustering/cluster_stats.h"
#include "clustering/init.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "uncertain/moments.h"

namespace uclust::clustering {

/// Tuning knobs of the relocation local search.
struct LocalSearchParams {
  ObjectiveKind objective = ObjectiveKind::kUcpc;
  /// Upper bound on full passes over the data (convergence usually takes
  /// far fewer; Proposition 4 guarantees termination).
  int max_passes = 100;
  /// Relative improvement below which a move is considered numerical noise.
  double min_relative_gain = 1e-12;
  /// Starting partition: random (the paper's Algorithm 1) or induced by
  /// D^2-weighted seeds (library extension; see init.h).
  InitStrategy init = InitStrategy::kRandom;
};

/// Result of a local-search run.
struct LocalSearchOutcome {
  std::vector<int> labels;  ///< Cluster per object, in [0, k).
  double objective = 0.0;   ///< Final total objective sum_C J(C).
  int passes = 0;           ///< Passes executed (the paper's iterations I).
  int64_t moves = 0;        ///< Total object relocations performed.
  /// Object-passes the relocation screen could not decide, which ran the
  /// exact per-dimension search instead (see RelocationScreen).
  int64_t exact_fallbacks = 0;
};

/// Phase 1 of a relocation pass (line 8 of Algorithm 1): the best move of
/// every object against the aggregates frozen at pass start. The proposals
/// are bit-identical to those of the exact per-dimension search over all
/// targets. Each object is screened from one dot product per cluster and a
/// closed-form gain with a rigorous rounding bound; only objects whose best
/// move the bound cannot separate from the alternatives (near-ties,
/// cancellation, non-finite values) run the exact search.
/// docs/algorithms.md ("Screened proposals") derives the bound.
class RelocationScreen {
 public:
  /// Precomputes each object's variance sum, second-moment sum and squared
  /// mean norm. O(n m).
  RelocationScreen(const uncertain::MomentView& moments, ObjectiveKind kind,
                   const engine::Engine& eng);

  /// Freezes the per-cluster scalars of one pass. `obj[c]` must equal
  /// Objective(kind, stats[c]); both must stay alive and unchanged while
  /// Propose runs. O(k m).
  void BeginPass(const std::vector<ClusterMoments>& stats,
                 const std::vector<double>& obj);

  /// For each object i in [begin, end), writes to proposal[i] the target
  /// with the largest objective decrease beyond `tolerance` (first index on
  /// ties), or labels[i] when there is none or its cluster is a singleton.
  /// Safe to call concurrently on disjoint ranges. Returns how many of the
  /// objects ran the exact fallback.
  int64_t Propose(std::size_t begin, std::size_t end,
                  const std::vector<int>& labels, double tolerance,
                  int* proposal) const;

 private:
  /// The exact search: ObjectiveAfterRemove/Add for every target.
  int ExactProposal(std::size_t i, int source, double tolerance) const;

  uncertain::MomentView moments_;
  ObjectiveKind kind_;
  std::vector<double> var_sum_;  // NaN when a variance or mu2 is negative
  std::vector<double> mu2_sum_;
  std::vector<double> mean_sq_;
  double bound_scale_;  // K * eps with K = 4 (m + 16)
  double bound_floor_;  // K * DBL_MIN, the underflow slack

  const std::vector<ClusterMoments>* stats_ = nullptr;
  const std::vector<double>* obj_ = nullptr;
  // Gain columns of adding an object to each cluster (simd::GainColumns)
  // and the scalars of removing one from it.
  std::vector<double> t_, offset_, alpha_, beta_, omega_, magnitude_, norm_t_;
  std::vector<double> rm_offset_, rm_alpha_, rm_beta_, rm_omega_,
      rm_magnitude_;
};

/// Runs Algorithm 1 from a random initial partition. Requires n >= k >= 1.
/// Clusters never become empty (a relocation that would empty its source
/// cluster is skipped), so exactly k clusters are returned.
///
/// Each pass proposes the best move of every object in parallel against the
/// pass-start aggregates (RelocationScreen), then applies the proposals
/// serially in object order, revalidating each against the current
/// aggregates (first-improving-move tie-breaking). Proposals depend only on
/// the pass-start state and the application order is fixed, so labels,
/// objective, pass and fallback counts are bit-identical for any engine
/// thread count and SIMD path.
LocalSearchOutcome RunLocalSearch(const uncertain::MomentView& moments,
                                  int k, const LocalSearchParams& params,
                                  common::Rng* rng,
                                  const engine::Engine& eng =
                                      engine::Engine::Serial());

/// Same as RunLocalSearch but starting from a caller-provided partition
/// (labels in [0, k), every cluster non-empty).
LocalSearchOutcome RunLocalSearchFrom(const uncertain::MomentView& moments,
                                      int k, const LocalSearchParams& params,
                                      std::vector<int> initial_labels,
                                      const engine::Engine& eng =
                                          engine::Engine::Serial());

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_LOCAL_SEARCH_H_
