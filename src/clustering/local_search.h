// The relocation local search of Algorithm 1, shared by UCPC and MMVar (and
// usable with the UK-means objective for ablations): repeatedly move each
// object to the cluster yielding the largest decrease of the global
// objective, exploiting the O(m) add/remove evaluations of Corollary 1.
#ifndef UCLUST_CLUSTERING_LOCAL_SEARCH_H_
#define UCLUST_CLUSTERING_LOCAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "clustering/cluster_stats.h"
#include "clustering/clusterer.h"
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
};

/// Result of a local-search run.
struct LocalSearchOutcome {
  std::vector<int> labels;  ///< Cluster per object, in [0, k).
  double objective = 0.0;   ///< Final total objective sum_C J(C).
  /// Passes that moved at least one object (the paper's iterations I). A
  /// converged run screens passes + 1 times: its final no-move pass is not
  /// counted.
  int passes = 0;
  int64_t moves = 0;  ///< Total object relocations performed.
  /// True when the last screened pass moved nothing; false when max_passes
  /// stopped the run.
  bool converged = false;
  /// Object-passes the relocation screen could not decide, which ran the
  /// exact per-dimension search instead (see RelocationScreen).
  int64_t exact_fallbacks = 0;
  /// Object-passes decided by a bound carried from an earlier pass, without
  /// the gain kernel (see RelocationScreen).
  int64_t screen_skips = 0;
  /// Object-passes the gain kernel's vector stay test decided as "no move"
  /// without the per-target selection loop (see RelocationScreen).
  int64_t vector_stays = 0;
};

/// Phase 1 of a relocation pass (line 8 of Algorithm 1): the best move of
/// every object against the aggregates frozen at pass start. The proposals
/// are bit-identical to those of the exact per-dimension search over all
/// targets. Each object is screened from one dot product per cluster and a
/// closed-form gain with a rigorous rounding bound; only objects whose best
/// move the bound cannot separate from the alternatives (near-ties,
/// cancellation, non-finite values) run the exact search.
///
/// The screen is stateful across passes: each object keeps the lowest
/// lower gain bound of its last screened pass, aged every pass by how far
/// its source cluster and the most-changed target cluster drifted. While
/// that bound still proves that no target gains, the object stays without
/// running the gain kernel (Hamerly's bound, carried across passes). After
/// the gain kernel, one lane-parallel minimum (simd::RelocationStay)
/// settles the common "no target gains" case; only the other objects run
/// the per-target selection loop. docs/algorithms.md ("Screened
/// proposals", "Vector stay test", "Drift-bounded skip") derives the
/// bounds.
class RelocationScreen {
 public:
  /// What one Propose call did with the objects of its range. Objects whose
  /// source cluster is a singleton are in none of the counts.
  struct Counts {
    int64_t skips = 0;            ///< stayed on the carried bound alone
    int64_t kernel_calls = 0;     ///< ran simd::RelocationGains
    int64_t vector_stays = 0;     ///< of those, stayed on RelocationStay
    int64_t exact_fallbacks = 0;  ///< of those, also ran the exact search
  };

  /// Precomputes each object's variance sum, second-moment sum and squared
  /// mean norm. O(n m).
  RelocationScreen(const uncertain::MomentView& moments, ObjectiveKind kind,
                   const engine::Engine& eng);

  /// Freezes the per-cluster scalars of one pass and how far they moved
  /// since the previous BeginPass. `obj[c]` must equal
  /// Objective(kind, stats[c]); both must stay alive and unchanged while
  /// Propose runs. O(k m).
  void BeginPass(const std::vector<ClusterMoments>& stats,
                 const std::vector<double>& obj);

  /// For each object i in [begin, end), writes to proposal[i] the target
  /// with the largest objective decrease beyond `tolerance` (first index on
  /// ties), or labels[i] when there is none or its cluster is a singleton.
  /// Safe to call concurrently on disjoint ranges. The carried bounds
  /// assume that, between two BeginPass calls, the ranges cover every
  /// object exactly once.
  Counts Propose(std::size_t begin, std::size_t end,
                 const std::vector<int>& labels, double tolerance,
                 int* proposal);

 private:
  // Per-cluster scalars of adding an object to each cluster (`add`, which
  // feeds simd::GainColumns) or removing one from it (`rm`).
  struct Side {
    std::vector<double> offset, alpha, beta, omega, magnitude;
  };
  // One pass's per-cluster columns.
  struct PassColumns {
    std::vector<double> t;  // m x k, row j holds T_cj for all c
    std::vector<double> norm_t;
    Side add, rm;
    std::vector<std::size_t> size;
  };
  // Bound on how much one side of a move's gain moved between two passes,
  // as coefficients of the object's 1, v, p, ||mu||^2 and 2 ||mu||.
  struct Drift {
    double offset, alpha, beta, omega, wt;
  };

  /// The exact search: ObjectiveAfterRemove/Add for every target.
  int ExactProposal(std::size_t i, int source, double tolerance) const;
  /// How far one side of cluster c moved from prev_ (`before`) to cur_
  /// (`after`).
  Drift SideDrift(std::size_t c, const Side& before, const Side& after) const;

  uncertain::MomentView moments_;
  ObjectiveKind kind_;
  std::vector<double> var_sum_;  // NaN when a variance or mu2 is negative
  std::vector<double> mu2_sum_;
  std::vector<double> mean_sq_;
  double bound_scale_;  // K * eps with K = 4 (m + 16)
  double bound_floor_;  // K * DBL_MIN, the underflow slack

  const std::vector<ClusterMoments>* stats_ = nullptr;
  const std::vector<double>* obj_ = nullptr;
  PassColumns cur_, prev_;
  // drift_[s]: the drift bound of a move out of source s, for any target.
  std::vector<Drift> drift_;

  // Per object: the bound carried from its last screened pass, and its
  // source cluster then (-1: no bound).
  std::vector<double> lo_;
  std::vector<int> bound_label_;
};

/// Runs Algorithm 1 from RandomPartition (its Line 2), drawn from `rng`.
/// Requires n >= k >= 1.
/// Clusters never become empty (a relocation that would empty its source
/// cluster is skipped), so exactly k clusters are returned.
///
/// Each pass proposes the best move of every object in parallel against the
/// pass-start aggregates (RelocationScreen), then applies the proposals
/// serially in object order, revalidating each against the current
/// aggregates (first-improving-move tie-breaking). Proposals depend only on
/// the pass-start state and the application order is fixed, so labels,
/// objective, pass, fallback and skip counts are bit-identical for any
/// engine thread count and SIMD path.
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

/// A UCPC or MMVar outcome as an untimed ClusteringResult: the labels, the
/// moving passes as iterations, and the objective.
ClusteringResult LocalSearchResult(LocalSearchOutcome outcome, int k);

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_LOCAL_SEARCH_H_
