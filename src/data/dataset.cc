#include "data/dataset.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/rng.h"

namespace uclust::data {

common::Status DeterministicDataset::Validate() const {
  const std::size_t m = dims();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].size() != m) {
      return common::Status::InvalidArgument(
          name + ": point " + std::to_string(i) + " has " +
          std::to_string(points[i].size()) + " dims, expected " +
          std::to_string(m));
    }
  }
  if (!labels.empty()) {
    if (labels.size() != points.size()) {
      return common::Status::InvalidArgument(name +
                                             ": labels/points size mismatch");
    }
    for (int label : labels) {
      if (label < 0 || label >= num_classes) {
        return common::Status::OutOfRange(name + ": label " +
                                          std::to_string(label) +
                                          " outside [0, num_classes)");
      }
    }
  }
  return common::Status::Ok();
}

std::vector<std::pair<double, double>> DeterministicDataset::DimensionRanges()
    const {
  const std::size_t m = dims();
  std::vector<std::pair<double, double>> ranges(
      m, {std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()});
  for (const auto& p : points) {
    for (std::size_t j = 0; j < m; ++j) {
      ranges[j].first = std::min(ranges[j].first, p[j]);
      ranges[j].second = std::max(ranges[j].second, p[j]);
    }
  }
  return ranges;
}

void DeterministicDataset::NormalizeToUnitCube() {
  const auto ranges = DimensionRanges();
  for (auto& p : points) {
    for (std::size_t j = 0; j < p.size(); ++j) {
      const double span = ranges[j].second - ranges[j].first;
      p[j] = span > 0.0 ? (p[j] - ranges[j].first) / span : 0.5;
    }
  }
}

DeterministicDataset Subsample(const DeterministicDataset& dataset,
                               std::size_t max_n, uint64_t seed) {
  if (dataset.size() <= max_n) return dataset;
  common::Rng rng(seed);
  auto picks = rng.SampleWithoutReplacement(dataset.size(), max_n);
  std::sort(picks.begin(), picks.end());
  DeterministicDataset out;
  out.name = dataset.name;
  out.num_classes = dataset.num_classes;
  out.points.reserve(max_n);
  for (std::size_t i : picks) {
    out.points.push_back(dataset.points[i]);
    if (!dataset.labels.empty()) out.labels.push_back(dataset.labels[i]);
  }
  return out;
}

UncertainDataset::UncertainDataset(
    std::string name, std::vector<uncertain::UncertainObject> objects,
    std::vector<int> labels, int num_classes)
    : name_(std::move(name)),
      objects_(std::move(objects)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  assert(labels_.empty() || labels_.size() == objects_.size());
}

UncertainDataset UncertainDataset::FromDeterministic(
    const DeterministicDataset& d) {
  std::vector<uncertain::UncertainObject> objects;
  objects.reserve(d.size());
  for (const auto& p : d.points) {
    objects.push_back(uncertain::UncertainObject::Deterministic(p));
  }
  return UncertainDataset(d.name, std::move(objects), d.labels,
                          d.num_classes);
}

UncertainDataset UncertainDataset::Subsampled(std::size_t max_n,
                                              uint64_t seed) const {
  if (size() <= max_n) return *this;
  common::Rng rng(seed);
  auto picks = rng.SampleWithoutReplacement(size(), max_n);
  std::sort(picks.begin(), picks.end());
  std::vector<uncertain::UncertainObject> objects;
  objects.reserve(max_n);
  std::vector<int> new_labels;
  for (std::size_t i : picks) {
    objects.push_back(objects_[i]);
    if (!labels_.empty()) new_labels.push_back(labels_[i]);
  }
  return UncertainDataset(name_ + "-sub", std::move(objects),
                          std::move(new_labels), num_classes_);
}

const uncertain::MomentMatrix& UncertainDataset::moments() const {
  if (!moments_ready_) {
    moments_ = uncertain::MomentMatrix::FromObjects(objects_);
    moments_ready_ = true;
  }
  return moments_;
}

}  // namespace uclust::data
