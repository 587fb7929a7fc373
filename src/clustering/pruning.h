// Pruning rules for sample-based UK-means (Section 2.2 of the paper):
//
//  * MinMax-BB (Ngai et al., 2006/2011): bound ED(o, c) by the min/max
//    squared distance from o's bounding region to c; prune candidates whose
//    lower bound exceeds the smallest upper bound.
//  * Voronoi bisector pruning, the core of VDBiP (Kao et al., TKDE 2010):
//    prune candidate c_b when o's region lies entirely on c_a's side of the
//    (c_a, c_b) perpendicular bisector.
//  * Cluster shift (Ngai et al., ICDM 2006): tighten bounds across
//    iterations from a previously computed exact ED and the distance the
//    centroid has moved since, via the Minkowski inequality on sqrt(ED).
//  * Pair-level sweep pruning (PairwiseBoundIndex): per-object region
//    centers and spread radii, plus the exact box-box separation, give a
//    cheap lower bound on the distance between ANY realizations of two
//    objects — the bound the column-pruned FDBSCAN sweep consults to skip
//    pairs whose distance probability is provably 0.
#ifndef UCLUST_CLUSTERING_PRUNING_H_
#define UCLUST_CLUSTERING_PRUNING_H_

#include <span>
#include <vector>

#include "uncertain/box.h"
#include "uncertain/uncertain_object.h"

namespace uclust::clustering {

/// Candidate-pruning strategy of the basic UK-means inner loop.
enum class PruningStrategy {
  kNone,      ///< Exact ED for every (object, centroid) pair.
  kMinMaxBB,  ///< MBR min/max distance bounds.
  kVoronoi,   ///< Perpendicular-bisector (Voronoi) half-space tests.
};

/// Display name ("none", "MinMax-BB", "VDBiP").
const char* PruningStrategyName(PruningStrategy strategy);

/// Lower/upper bounds on an expected squared distance.
struct EdBounds {
  double lb = 0.0;
  double ub = 0.0;
};

/// MBR bounds: for a pdf supported inside `box`,
/// min_x ||x-c||^2 <= ED(o, c) <= max_x ||x-c||^2.
EdBounds MinMaxBounds(const uncertain::Box& box,
                      std::span<const double> centroid);

/// Cluster-shift bounds: if ED(o, c_then) = prev_ed and the centroid has
/// moved by at most `shift` since, then
/// (max(0, sqrt(prev_ed) - shift))^2 <= ED(o, c_now) <= (sqrt(prev_ed)+shift)^2.
EdBounds ShiftBounds(double prev_ed, double shift);

/// Intersection of two bound intervals (both must be valid bounds on the
/// same quantity).
inline EdBounds TightestOf(const EdBounds& a, const EdBounds& b) {
  return {a.lb > b.lb ? a.lb : b.lb, a.ub < b.ub ? a.ub : b.ub};
}

/// The slacked squared threshold shared by every "provably beyond" test
/// (ProvablyBeyond, the spatial-index candidate queries): a computed
/// squared-distance lower bound exceeding SlackedSquaredThreshold(d2)
/// proves the true distance exceeds sqrt(d2) even under floating-point
/// rounding of bounds, samplers, and sample distances — the relative slack
/// sits far above ulp-level noise, the absolute term covers d2 == 0.
/// Conversely every pair whose true distance could be within sqrt(d2) has
/// a computed lower bound at or below it, which is what makes index
/// candidate sets supersets of the non-pruned pairs.
inline double SlackedSquaredThreshold(double d2) {
  return d2 * (1.0 + 1e-9) + 1e-300;
}

/// Removes from `candidates` every centroid b dominated by another candidate
/// a, i.e. `box` lies entirely in a's bisector half-space. `centroids` is a
/// flat k x m array; `candidates` holds centroid indices.
void VoronoiFilter(const uncertain::Box& box,
                   const std::vector<double>& centroids, std::size_t m,
                   std::vector<int>* candidates);

/// Per-object spatial summaries for pair-level sweep pruning. Every pdf in
/// the library has bounded support, so each object's realizations lie inside
/// its domain region; the index copies each region box into flat n x m
/// `lower`/`upper` arrays for the exact box-box separation test and
/// precomputes the box's center and circumradius ("centroid distance minus
/// spread radii"). It keeps no reference to the objects.
class PairwiseBoundIndex {
 public:
  explicit PairwiseBoundIndex(
      std::span<const uncertain::UncertainObject> objects);

  std::size_t size() const { return radii_.size(); }

  /// Lower bound on the squared distance between ANY realization pair of
  /// objects i and j (0 when the regions overlap): the larger of the
  /// center-distance-minus-radii bound and the exact box-box separation.
  /// When both regions are degenerate (zero-extent boxes — point-mass pdfs),
  /// the bound is the exact squared center distance: the sqrt/re-square
  /// round trip of the radius bound is skipped, as it can overshoot the true
  /// value by ulps.
  double MinSquaredDistance(std::size_t i, std::size_t j) const;

  /// True when every realization pair of (i, j) is provably farther apart
  /// than `eps`, i.e. Pr[dist(o_i, o_j) <= eps] is exactly 0 and a kernel
  /// evaluation of the pair can be skipped. A tiny relative slack absorbs
  /// floating-point rounding at the boundary so the proof also holds for
  /// computed (rounded) sample distances.
  bool ProvablyBeyond(std::size_t i, std::size_t j, double eps) const;

  /// The row pass of the all-pairs sweep: writes the ascending columns
  /// j > i with !ProvablyBeyond(i, j, eps) — the same decision, computed
  /// without branches — to the front of `kept`, which must hold at least
  /// size() - i - 1 entries, and returns how many it wrote.
  std::size_t KeptAbove(std::size_t i, double eps,
                        std::span<std::size_t> kept) const;

 private:
  /// One object's row of the flat arrays.
  struct BoundRow {
    const double* lower;
    const double* upper;
    const double* center;
    double radius;
  };
  BoundRow Row(std::size_t i) const;
  /// Exact sum of squared center differences (no sqrt involved).
  static double CenterSquaredDistance(const BoundRow& a, const BoundRow& b,
                                      std::size_t dims);
  /// Exact squared box-box separation: the bits of
  /// uncertain::Box::MinSquaredDistanceTo.
  static double BoxSquaredDistance(const BoundRow& a, const BoundRow& b,
                                   std::size_t dims);
  /// ProvablyBeyond against a precomputed SlackedSquaredThreshold(eps^2).
  static bool Beyond(const BoundRow& a, const BoundRow& b, std::size_t dims,
                     double threshold);

  std::size_t dims_ = 0;
  std::vector<double> lower_;    // n x m region box lower corners
  std::vector<double> upper_;    // n x m region box upper corners
  std::vector<double> centers_;  // n x m region centers
  std::vector<double> radii_;    // n region circumradii
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_PRUNING_H_
