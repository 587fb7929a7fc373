#include "clustering/clusterer.h"

#include <algorithm>
#include <map>

namespace uclust::clustering {

Clusterer::~Clusterer() = default;

int CountClusters(const std::vector<int>& labels) {
  // One flag per label below n. At most n labels are distinct, so labels
  // at or above n are rare; they are counted by sorting.
  std::vector<char> seen(labels.size(), 0);
  std::vector<int> large;
  int count = 0;
  for (int l : labels) {
    if (l < 0) continue;
    const std::size_t slot = static_cast<std::size_t>(l);
    if (slot < seen.size()) {
      count += seen[slot] == 0;
      seen[slot] = 1;
    } else {
      large.push_back(l);
    }
  }
  std::sort(large.begin(), large.end());
  return count + static_cast<int>(
                     std::unique(large.begin(), large.end()) - large.begin());
}

std::vector<std::size_t> ClusterSizes(const std::vector<int>& labels, int k) {
  std::vector<std::size_t> sizes(k, 0);
  for (int l : labels) {
    if (l >= 0 && l < k) ++sizes[l];
  }
  return sizes;
}

std::vector<int> RelabelConsecutive(const std::vector<int>& labels) {
  std::map<int, int> remap;
  std::vector<int> out;
  out.reserve(labels.size());
  for (int l : labels) {
    if (l < 0) {
      out.push_back(l);
      continue;
    }
    auto [it, inserted] = remap.emplace(l, static_cast<int>(remap.size()));
    out.push_back(it->second);
  }
  return out;
}

}  // namespace uclust::clustering
