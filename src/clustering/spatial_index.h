// Spatial index over uncertain-region boxes: candidate-SET pruning for the
// pairwise sweeps.
//
// PairwiseBoundIndex (pruning.h) drops a pair only after testing its bound,
// so FDBSCAN's all-pairs bound pass still costs O(n^2) bound tests. The index here
// answers the same question — "which objects' regions could possibly be
// within eps of this one?" — as a range query over the per-object domain
// boxes, touching O(log n + output) boxes instead of all n. It is a
// bulk-loaded STR-packed R-tree: items are sorted by region center with the
// Sort-Tile-Recursive sweep (cycling split dimensions), packed into
// fixed-capacity leaves, and the internal levels are built bottom-up over
// consecutive node runs. Queries descend only into nodes whose MBR could
// contain a match.
//
// Exactness contract: every query applies the exact Box bound
// (Box::MinSquaredDistanceTo / MaxSquaredDistanceTo) to each surviving
// item, and traversal only ever discards items whose bound provably exceeds
// the query threshold — node MBRs contain their leaves' boxes, so the
// computed node lower bound never exceeds a computed leaf bound (min/max
// coordinate folding is exact and the per-dimension gap/square/sum chain is
// monotone under rounding). The result of QueryWithin is therefore EXACTLY
// the brute-force set { j : boxes[j].MinSquaredDistanceTo(query) <=
// threshold2 }, which is what lets the indexed sweeps stay bit-identical to
// the all-pairs ones (see docs/spatial-index.md).
//
// Thread-safety: building is serial; all queries are const and safe to call
// concurrently (the bound-test counter is atomic).
#ifndef UCLUST_CLUSTERING_SPATIAL_INDEX_H_
#define UCLUST_CLUSTERING_SPATIAL_INDEX_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "uncertain/box.h"
#include "uncertain/uncertain_object.h"

namespace uclust::clustering {

/// Concrete index structure (what a built SpatialIndex runs on).
enum class SpatialIndexKind { kRTree };

/// Kept only because perfbench/ builds its index through this resolver.
enum class SpatialIndexChoice { kAuto };

/// The buildable structure for a choice: the R-tree at every
/// dimensionality.
SpatialIndexKind ResolveSpatialIndexKind(SpatialIndexChoice choice,
                                         std::size_t dims);

/// A bulk-loaded spatial index over a fixed set of axis-aligned boxes. The
/// `kind` constructor argument names the structure; kRTree is the only one.
class SpatialIndex {
 public:
  /// Index over the objects' domain regions (ids = object indices). The
  /// objects must outlive the index.
  SpatialIndex(std::span<const uncertain::UncertainObject> objects,
               SpatialIndexKind kind);
  /// Index over an owned box list (ids = positions in `boxes`) — the
  /// per-iteration medoid index.
  SpatialIndex(std::vector<uncertain::Box> boxes, SpatialIndexKind kind);

  SpatialIndex(const SpatialIndex&) = delete;
  SpatialIndex& operator=(const SpatialIndex&) = delete;

  /// Number of indexed boxes.
  std::size_t size() const { return boxes_.size(); }

  /// Ascending ids j != exclude_id with
  /// boxes[j].MinSquaredDistanceTo(query) <= threshold2 — exactly the
  /// brute-force set (callers pass the slacked eps^2 threshold, e.g.
  /// SlackedSquaredThreshold in pruning.h). Pass exclude_id >= size() to
  /// exclude nothing. `out` is cleared first.
  void QueryWithin(const uncertain::Box& query, double threshold2,
                   std::size_t exclude_id,
                   std::vector<std::size_t>* out) const;

  /// Candidate set for "which indexed box minimizes a distance bounded by
  /// [min, max] box distance" (the UK-medoids assignment argmin): ascending
  /// ids whose min squared distance to `query` is within a slacked margin
  /// of the smallest max squared distance. Every id whose exact distance
  /// could equal the minimum is included; excluded ids are provably
  /// strictly farther. Never empty for a non-empty index.
  void NearestCandidates(const uncertain::Box& query,
                         std::vector<std::size_t>* out) const;

  /// Box-distance bound computations performed by queries so far (node MBR
  /// tests plus per-item tests) — the cost an indexed sweep pays where the
  /// all-pairs sweep pays n*(n-1)/2 pair bounds. Monotone; exact across
  /// concurrent queries.
  int64_t bound_tests() const {
    return bound_tests_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    uncertain::Box mbr;
    std::size_t begin = 0;  // leaf: item_order_ range; else child node range
    std::size_t end = 0;
    bool leaf = true;
  };

  void Build();
  void StrPartition(std::size_t lo, std::size_t hi, std::size_t dim);
  uncertain::Box MbrOfItems(std::size_t lo, std::size_t hi) const;
  uncertain::Box MbrOfNodes(std::size_t lo, std::size_t hi) const;

  const uncertain::Box& box(std::size_t id) const { return *boxes_[id]; }

  std::vector<uncertain::Box> owned_;      // set by the box-list constructor
  std::vector<const uncertain::Box*> boxes_;
  std::size_t dims_ = 0;
  std::vector<double> centers_;  // n x m region centers (STR build order)
  mutable std::atomic<int64_t> bound_tests_{0};

  // Items permuted into leaf order; nodes stored level by level (leaves
  // first, root last), children of an internal node are a consecutive run
  // of the level below.
  std::vector<std::size_t> item_order_;
  std::vector<Node> nodes_;
  std::size_t root_ = 0;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_SPATIAL_INDEX_H_
