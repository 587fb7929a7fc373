#include "clustering/spatial_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

namespace uclust::clustering {
namespace {

// Leaf capacity / internal fanout of the STR packing. Small leaves keep the
// per-node MBR tight; a modest fanout keeps the tree shallow. Both are cold
// build-time constants — queries only see the resulting node layout.
constexpr std::size_t kLeafCap = 16;
constexpr std::size_t kFanout = 8;

// Relative slack applied to the smallest max-distance bound in
// NearestCandidates. The exact argmin winner satisfies
// min_bound <= value <= best_upper_bound in exact arithmetic; the computed
// bounds agree with the exact ones to a few ulps per dimension
// (<= ~1e-13 relative for any realistic dimensionality), so a 4e-9 margin
// keeps every potential winner in the candidate set while excluded ids
// remain provably strictly farther. The 1e-300 absolute floor covers
// best_upper_bound == 0 (coincident point boxes).
constexpr double kArgminSlack = 4e-9;

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

SpatialIndexKind ResolveSpatialIndexKind(SpatialIndexChoice /*choice*/,
                                         std::size_t /*dims*/) {
  return SpatialIndexKind::kRTree;
}

SpatialIndex::SpatialIndex(std::span<const uncertain::UncertainObject> objects,
                           SpatialIndexKind /*kind*/) {
  boxes_.reserve(objects.size());
  for (const auto& obj : objects) boxes_.push_back(&obj.region());
  Build();
}

SpatialIndex::SpatialIndex(std::vector<uncertain::Box> boxes,
                           SpatialIndexKind /*kind*/)
    : owned_(std::move(boxes)) {
  boxes_.reserve(owned_.size());
  for (const auto& b : owned_) boxes_.push_back(&b);
  Build();
}

void SpatialIndex::Build() {
  const std::size_t n = boxes_.size();
  dims_ = n == 0 ? 0 : boxes_[0]->dims();
  centers_.resize(n * dims_);
  for (std::size_t i = 0; i < n; ++i) {
    assert(boxes_[i]->dims() == dims_);
    const auto c = boxes_[i]->Center();
    std::copy(c.begin(), c.end(), centers_.begin() + i * dims_);
  }
  item_order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) item_order_[i] = i;
  if (n == 0) return;
  StrPartition(0, n, 0);
  // Pack leaves over consecutive runs of the STR order.
  for (std::size_t lo = 0; lo < n; lo += kLeafCap) {
    Node nd;
    nd.leaf = true;
    nd.begin = lo;
    nd.end = std::min(n, lo + kLeafCap);
    nd.mbr = MbrOfItems(nd.begin, nd.end);
    nodes_.push_back(std::move(nd));
  }
  // Build internal levels bottom-up; each groups a consecutive run of the
  // level below, so child ranges are plain index intervals.
  std::size_t level_begin = 0;
  std::size_t level_end = nodes_.size();
  while (level_end - level_begin > 1) {
    for (std::size_t lo = level_begin; lo < level_end; lo += kFanout) {
      Node nd;
      nd.leaf = false;
      nd.begin = lo;
      nd.end = std::min(level_end, lo + kFanout);
      nd.mbr = MbrOfNodes(nd.begin, nd.end);
      nodes_.push_back(std::move(nd));
    }
    level_begin = level_end;
    level_end = nodes_.size();
  }
  root_ = nodes_.size() - 1;
}

uncertain::Box SpatialIndex::MbrOfItems(std::size_t lo, std::size_t hi) const {
  std::vector<double> lower(box(item_order_[lo]).lower());
  std::vector<double> upper(box(item_order_[lo]).upper());
  for (std::size_t p = lo + 1; p < hi; ++p) {
    const uncertain::Box& b = box(item_order_[p]);
    for (std::size_t j = 0; j < dims_; ++j) {
      lower[j] = std::min(lower[j], b.lower()[j]);
      upper[j] = std::max(upper[j], b.upper()[j]);
    }
  }
  return uncertain::Box(std::move(lower), std::move(upper));
}

uncertain::Box SpatialIndex::MbrOfNodes(std::size_t lo, std::size_t hi) const {
  std::vector<double> lower(nodes_[lo].mbr.lower());
  std::vector<double> upper(nodes_[lo].mbr.upper());
  for (std::size_t p = lo + 1; p < hi; ++p) {
    const uncertain::Box& b = nodes_[p].mbr;
    for (std::size_t j = 0; j < dims_; ++j) {
      lower[j] = std::min(lower[j], b.lower()[j]);
      upper[j] = std::max(upper[j], b.upper()[j]);
    }
  }
  return uncertain::Box(std::move(lower), std::move(upper));
}

void SpatialIndex::StrPartition(std::size_t lo, std::size_t hi,
                                std::size_t dim) {
  const std::size_t count = hi - lo;
  if (count <= kLeafCap || dims_ == 0) return;
  // Sort the range by region center along this dimension (object id breaks
  // ties, so the packing is deterministic).
  std::sort(item_order_.begin() + static_cast<std::ptrdiff_t>(lo),
            item_order_.begin() + static_cast<std::ptrdiff_t>(hi),
            [&](std::size_t a, std::size_t b) {
              const double ca = centers_[a * dims_ + dim];
              const double cb = centers_[b * dims_ + dim];
              if (ca != cb) return ca < cb;
              return a < b;
            });
  const std::size_t remaining = dims_ - std::min(dim, dims_ - 1);
  if (remaining <= 1) return;  // last dimension: sorted chunks become leaves
  // STR slab count: the (remaining)-th root of the leaf count, so each slab
  // recursively tiles the next dimension with the same leaf budget.
  const std::size_t leaves = (count + kLeafCap - 1) / kLeafCap;
  std::size_t slabs = static_cast<std::size_t>(std::ceil(
      std::pow(static_cast<double>(leaves), 1.0 / static_cast<double>(remaining))));
  slabs = std::clamp<std::size_t>(slabs, 1, leaves);
  // Slab sizes are multiples of the leaf capacity so leaves never straddle
  // slab boundaries.
  std::size_t per_slab = (count + slabs - 1) / slabs;
  per_slab = ((per_slab + kLeafCap - 1) / kLeafCap) * kLeafCap;
  for (std::size_t s = lo; s < hi; s += per_slab) {
    StrPartition(s, std::min(hi, s + per_slab), dim + 1);
  }
}

void SpatialIndex::QueryWithin(const uncertain::Box& query, double threshold2,
                               std::size_t exclude_id,
                               std::vector<std::size_t>* out) const {
  out->clear();
  if (boxes_.empty()) return;
  int64_t tests = 0;
  std::vector<std::size_t> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const Node& nd = nodes_[stack.back()];
    stack.pop_back();
    ++tests;
    if (nd.mbr.MinSquaredDistanceTo(query) > threshold2) continue;
    if (nd.leaf) {
      for (std::size_t p = nd.begin; p < nd.end; ++p) {
        const std::size_t id = item_order_[p];
        if (id == exclude_id) continue;
        ++tests;
        if (box(id).MinSquaredDistanceTo(query) <= threshold2) {
          out->push_back(id);
        }
      }
    } else {
      for (std::size_t c = nd.begin; c < nd.end; ++c) stack.push_back(c);
    }
  }
  std::sort(out->begin(), out->end());
  bound_tests_.fetch_add(tests, std::memory_order_relaxed);
}

void SpatialIndex::NearestCandidates(const uncertain::Box& query,
                                     std::vector<std::size_t>* out) const {
  out->clear();
  if (boxes_.empty()) return;
  int64_t tests = 0;
  double best_ub = kInf;  // smallest max squared distance over all boxes
  // Best-first by node MBR min distance: a node farther than the current
  // best max distance cannot hold a box with a smaller one (every box's
  // max distance dominates its node's min distance).
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  ++tests;
  pq.push({nodes_[root_].mbr.MinSquaredDistanceTo(query), root_});
  while (!pq.empty()) {
    const auto [d2, ni] = pq.top();
    pq.pop();
    if (d2 > best_ub) break;
    const Node& nd = nodes_[ni];
    if (nd.leaf) {
      for (std::size_t p = nd.begin; p < nd.end; ++p) {
        ++tests;
        best_ub =
            std::min(best_ub, box(item_order_[p]).MaxSquaredDistanceTo(query));
      }
    } else {
      for (std::size_t c = nd.begin; c < nd.end; ++c) {
        ++tests;
        const double cd = nodes_[c].mbr.MinSquaredDistanceTo(query);
        if (cd <= best_ub) pq.push({cd, c});
      }
    }
  }
  bound_tests_.fetch_add(tests, std::memory_order_relaxed);
  const double threshold2 = best_ub * (1.0 + kArgminSlack) + 1e-300;
  QueryWithin(query, threshold2, boxes_.size(), out);
}

}  // namespace uclust::clustering
