#include "clustering/pruning.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace uclust::clustering {

const char* PruningStrategyName(PruningStrategy strategy) {
  switch (strategy) {
    case PruningStrategy::kNone:
      return "none";
    case PruningStrategy::kMinMaxBB:
      return "MinMax-BB";
    case PruningStrategy::kVoronoi:
      return "VDBiP";
  }
  return "unknown";
}

EdBounds MinMaxBounds(const uncertain::Box& box,
                      std::span<const double> centroid) {
  return {box.MinSquaredDistanceTo(centroid),
          box.MaxSquaredDistanceTo(centroid)};
}

EdBounds ShiftBounds(double prev_ed, double shift) {
  const double r = std::sqrt(std::max(prev_ed, 0.0));
  const double lo = std::max(0.0, r - shift);
  const double hi = r + shift;
  return {lo * lo, hi * hi};
}

void VoronoiFilter(const uncertain::Box& box,
                   const std::vector<double>& centroids, std::size_t m,
                   std::vector<int>* candidates) {
  auto centroid = [&](int c) {
    return std::span<const double>(
        centroids.data() + static_cast<std::size_t>(c) * m, m);
  };
  std::vector<int>& cand = *candidates;
  std::vector<bool> dead(cand.size(), false);
  for (std::size_t a = 0; a < cand.size(); ++a) {
    if (dead[a]) continue;
    for (std::size_t b = 0; b < cand.size(); ++b) {
      if (a == b || dead[b]) continue;
      if (box.EntirelyCloserTo(centroid(cand[a]), centroid(cand[b]))) {
        dead[b] = true;
      }
    }
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < cand.size(); ++i) {
    if (!dead[i]) cand[out++] = cand[i];
  }
  cand.resize(out);
}

PairwiseBoundIndex::PairwiseBoundIndex(
    std::span<const uncertain::UncertainObject> objects) {
  const std::size_t n = objects.size();
  if (n == 0) return;
  dims_ = objects.front().dims();
  lower_.resize(n * dims_);
  upper_.resize(n * dims_);
  centers_.resize(n * dims_);
  radii_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const uncertain::Box& box = objects[i].region();
    double r2 = 0.0;
    for (std::size_t d = 0; d < dims_; ++d) {
      lower_[i * dims_ + d] = box.lower()[d];
      upper_[i * dims_ + d] = box.upper()[d];
      const double c = 0.5 * (box.lower()[d] + box.upper()[d]);
      centers_[i * dims_ + d] = c;
      const double half = box.upper()[d] - c;
      r2 += half * half;
    }
    radii_[i] = std::sqrt(r2);
  }
}

double PairwiseBoundIndex::CenterSquaredDistance(const BoundRow& a,
                                                 const BoundRow& b,
                                                 std::size_t dims) {
  double center_d2 = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double diff = a.center[d] - b.center[d];
    center_d2 += diff * diff;
  }
  return center_d2;
}

double PairwiseBoundIndex::BoxSquaredDistance(const BoundRow& a,
                                              const BoundRow& b,
                                              std::size_t dims) {
  double acc = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    // Per-dimension interval gap: at most one of the two differences is
    // positive (the intervals are ordered), and both are <= 0 on overlap.
    // (m + |m|) / 2 is exactly max(m, 0) for finite m, without the branch
    // a compiler emits for the clamp.
    const double below = a.lower[d] - b.upper[d];
    const double above = b.lower[d] - a.upper[d];
    const double m = std::max(below, above);
    const double gap = 0.5 * (m + std::fabs(m));
    acc += gap * gap;
  }
  return acc;
}

// A point-mass pair decides on the exact squared center distance; any other
// pair is beyond when the center-distance-minus-radii bound or the exact
// box-box separation clears the threshold. Every test is computed and the
// results combined without branching on them, so the row pass never
// mispredicts.
inline bool PairwiseBoundIndex::Beyond(const BoundRow& a, const BoundRow& b,
                                       std::size_t dims, double threshold) {
  const double center_d2 = CenterSquaredDistance(a, b, dims);
  const double gap = std::sqrt(center_d2) - a.radius - b.radius;
  const bool point = (a.radius == 0.0) & (b.radius == 0.0);
  const bool center = center_d2 > threshold;
  const bool radius = (gap > 0.0) & (gap * gap > threshold);
  const bool box = BoxSquaredDistance(a, b, dims) > threshold;
  return point ? center : (radius | box);
}

PairwiseBoundIndex::BoundRow PairwiseBoundIndex::Row(std::size_t i) const {
  return {lower_.data() + i * dims_, upper_.data() + i * dims_,
          centers_.data() + i * dims_, radii_[i]};
}

double PairwiseBoundIndex::MinSquaredDistance(std::size_t i,
                                              std::size_t j) const {
  const BoundRow a = Row(i);
  const BoundRow b = Row(j);
  if (a.radius == 0.0 && b.radius == 0.0) {
    // Both regions are points (point-mass pdfs / zero-extent boxes): the
    // squared center distance is the exact pair distance. The generic path
    // would take sqrt(center_d2) and re-square it, which can exceed the
    // true value by ulps — not a valid lower bound.
    return CenterSquaredDistance(a, b, dims_);
  }
  const double gap =
      std::sqrt(CenterSquaredDistance(a, b, dims_)) - a.radius - b.radius;
  const double radius_bound = gap > 0.0 ? gap * gap : 0.0;
  // The box-box separation dominates the radius bound (the circumball
  // contains the box), so it can only tighten it.
  const double box_bound = BoxSquaredDistance(a, b, dims_);
  return box_bound > radius_bound ? box_bound : radius_bound;
}

bool PairwiseBoundIndex::ProvablyBeyond(std::size_t i, std::size_t j,
                                        double eps) const {
  // Relative slack: realizations are confined to the region boxes up to
  // rounding of the samplers' inverse CDFs, and computed sample distances
  // round too; requiring the bound to clear eps^2 by a margin far above
  // ulp-level noise keeps "provably" honest in floating point.
  return Beyond(Row(i), Row(j), dims_, SlackedSquaredThreshold(eps * eps));
}

std::size_t PairwiseBoundIndex::KeptAbove(std::size_t i, double eps,
                                          std::span<std::size_t> kept) const {
  const double threshold = SlackedSquaredThreshold(eps * eps);
  const std::size_t n = size();
  assert(kept.size() >= n - i - 1);
  const BoundRow a = Row(i);
  std::size_t count = 0;
  for (std::size_t j = i + 1; j < n; ++j) {
    kept[count] = j;
    count += !Beyond(a, Row(j), dims_, threshold);
  }
  return count;
}

}  // namespace uclust::clustering
