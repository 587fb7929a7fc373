// Per-cluster moment aggregates and the closed-form objectives built on them.
//
// Theorem 3 reduces the UCPC objective of a cluster C to the per-dimension
// aggregates
//   Psi_j = sum_i (sigma^2)_j(o_i)   (variances)
//   Phi_j = sum_i (mu2)_j(o_i)       (second moments)
//   T_j   = sum_i  mu_j(o_i)         (means; Upsilon_j = T_j^2)
// and the same three sums also yield the UK-means (Lemma 1) and MMVar
// (Lemma 2 + Eq. 11) objectives, which is what makes Propositions 2 and 3
// directly checkable. Corollary 1 turns add/remove into O(m) updates.
//
// These aggregates consume the FULL moment columns — Phi needs mu2 and Psi
// the per-dimension variances. The CK-means objective (clustering/ckmeans.h)
// needs none of them: by König-Huygens it is the assignment objective
// sum_o [sigma^2(o) + ||mu(o) - c||^2], which Lemma 1 equals at converged
// centroids (tests/test_ukmeans.cc cross-checks this).
#ifndef UCLUST_CLUSTERING_CLUSTER_STATS_H_
#define UCLUST_CLUSTERING_CLUSTER_STATS_H_

#include <span>
#include <vector>

#include "uncertain/moments.h"

namespace uclust::clustering {

/// Aggregated moment sums of one cluster, supporting O(m) add/remove.
class ClusterMoments {
 public:
  ClusterMoments() = default;
  /// Creates empty aggregates for m dimensions.
  explicit ClusterMoments(std::size_t m)
      : sum_var_(m, 0.0), sum_mu2_(m, 0.0), sum_mu_(m, 0.0) {}

  /// Number of member objects |C|.
  std::size_t size() const { return size_; }
  /// Dimensionality m.
  std::size_t dims() const { return sum_var_.size(); }
  /// Psi: per-dimension sums of member variances.
  std::span<const double> sum_var() const { return sum_var_; }
  /// Phi: per-dimension sums of member second moments.
  std::span<const double> sum_mu2() const { return sum_mu2_; }
  /// T: per-dimension sums of member means (Upsilon_j = T_j^2).
  std::span<const double> sum_mu() const { return sum_mu_; }

  /// Adds object i of `moments` to the cluster. O(m).
  void Add(const uncertain::MomentView& moments, std::size_t i);
  /// Removes object i of `moments` from the cluster (must be a member). O(m).
  void Remove(const uncertain::MomentView& moments, std::size_t i);

 private:
  std::size_t size_ = 0;
  std::vector<double> sum_var_;
  std::vector<double> sum_mu2_;
  std::vector<double> sum_mu_;
};

/// Which closed-form objective a local-search run minimizes.
enum class ObjectiveKind {
  kUcpc,     ///< J(C) of Theorem 3 (this paper).
  kMmvar,    ///< J_MM(C) = sigma^2(C_MM) (Eq. 11).
  kUkmeans,  ///< J_UK(C) (Lemma 1) — exposed for ablations.
};

/// Display name of an objective kind.
const char* ObjectiveKindName(ObjectiveKind kind);

/// J(C) of Theorem 3: sum_j (Psi_j/|C| + Phi_j - T_j^2/|C|). O(m).
/// Returns 0 for an empty cluster.
double UcpcObjective(const ClusterMoments& c);

/// J_UK(C) of Lemma 1: sum_j (Phi_j - T_j^2/|C|). O(m).
double UkmeansObjective(const ClusterMoments& c);

/// J_MM(C) of Eq. 11 via Lemma 2: sigma^2 of the mixture centroid,
/// sum_j (Phi_j/|C| - (T_j/|C|)^2). O(m).
double MmvarObjective(const ClusterMoments& c);

/// Dispatches on `kind`. O(m).
double Objective(ObjectiveKind kind, const ClusterMoments& c);

/// Objective of C + {object i} computed in O(m) without mutating `c`
/// (Corollary 1 for additions, generalized to all three objectives).
double ObjectiveAfterAdd(ObjectiveKind kind, const ClusterMoments& c,
                         const uncertain::MomentView& moments,
                         std::size_t i);

/// Objective of C - {object i} computed in O(m) without mutating `c`
/// (Corollary 1 for removals). `i` must be a member; |C| must be >= 1.
double ObjectiveAfterRemove(ObjectiveKind kind, const ClusterMoments& c,
                            const uncertain::MomentView& moments,
                            std::size_t i);

/// Sum over clusters of `kind`'s objective for a full labeling. O(n m).
double TotalObjective(ObjectiveKind kind,
                      const uncertain::MomentView& moments,
                      const std::vector<int>& labels, int k);

/// Expected squared distance between object i and the U-centroid of the
/// cluster described by `c` — the per-object term of Eq. 14 in closed form
/// (derived from Theorem 3 / Lemma 5); `i` must be a member of `c`.
/// Exposed for tests that validate the closed form against Monte Carlo.
double ExpectedDistanceToUCentroid(const ClusterMoments& c,
                                   const uncertain::MomentView& moments,
                                   std::size_t i);

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_CLUSTER_STATS_H_
