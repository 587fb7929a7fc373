// Dataset containers: deterministic labeled point sets and their uncertain
// counterparts.
#ifndef UCLUST_DATA_DATASET_H_
#define UCLUST_DATA_DATASET_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "uncertain/moments.h"
#include "uncertain/uncertain_object.h"

namespace uclust::data {

/// A deterministic dataset: n points in R^m with an optional reference
/// classification (class labels in [0, num_classes)).
struct DeterministicDataset {
  std::string name;
  std::vector<std::vector<double>> points;
  std::vector<int> labels;  ///< Empty when no reference classes exist.
  int num_classes = 0;      ///< 0 when unlabeled.

  /// Number of points.
  std::size_t size() const { return points.size(); }
  /// Dimensionality (0 for an empty dataset).
  std::size_t dims() const { return points.empty() ? 0 : points[0].size(); }
  /// Checks shape invariants (rectangular points, labels in range).
  common::Status Validate() const;
  /// Per-dimension [min, max] ranges; max - min of each dimension is the
  /// scale the uncertainty protocol multiplies its relative widths by.
  std::vector<std::pair<double, double>> DimensionRanges() const;
  /// Rescales all coordinates into the unit cube (in place, per dimension).
  void NormalizeToUnitCube();
};

/// Uniform subsample without replacement of at most `max_n` points
/// (keeps labels; returns a copy when the dataset is already small enough).
/// Used by the bench harness to keep O(n^2)-time baselines within a time
/// budget and to mirror the paper's evaluation sizes. It is no longer a
/// memory necessity for the table itself: the pairwise consumers access
/// ED^ through clustering::PairwiseStore, whose tiled backend (selected
/// via EngineConfig::memory_budget_bytes) bounds the table memory at any n
/// (UAHC additionally keeps a merge overlay of one row per alive
/// merge-product cluster; see uahc.h).
DeterministicDataset Subsample(const DeterministicDataset& dataset,
                               std::size_t max_n, uint64_t seed);

/// An uncertain dataset: n uncertain objects with an optional reference
/// classification carried over from the deterministic source.
class UncertainDataset {
 public:
  UncertainDataset() = default;
  /// Creates a dataset; labels may be empty.
  UncertainDataset(std::string name,
                   std::vector<uncertain::UncertainObject> objects,
                   std::vector<int> labels, int num_classes);

  /// Wraps deterministic points as Dirac uncertain objects (the paper's
  /// "Case 1": clustering observed representations only).
  static UncertainDataset FromDeterministic(const DeterministicDataset& d);

  /// Dataset name (for reports).
  const std::string& name() const { return name_; }
  /// Number of objects n.
  std::size_t size() const { return objects_.size(); }
  /// Dimensionality m.
  std::size_t dims() const {
    return objects_.empty() ? 0 : objects_[0].dims();
  }
  /// All objects.
  const std::vector<uncertain::UncertainObject>& objects() const {
    return objects_;
  }
  /// The i-th object.
  const uncertain::UncertainObject& object(std::size_t i) const {
    return objects_[i];
  }
  /// Reference labels (empty when unlabeled).
  const std::vector<int>& labels() const { return labels_; }
  /// Number of reference classes (0 when unlabeled).
  int num_classes() const { return num_classes_; }

  /// Packs (and caches) the moment statistics of all objects through
  /// MomentMatrix::FromObjects. File-backed ingestion (io/ingest.h) decodes
  /// the same bits straight from a .ubin without building the objects.
  const uncertain::MomentMatrix& moments() const;

  /// Uniform subsample without replacement of at most `max_n` objects.
  UncertainDataset Subsampled(std::size_t max_n, uint64_t seed) const;

  /// Annotations linking a resident dataset back to its on-disk artifacts.
  /// `source_path` is the .ubin file the objects were read from (set by
  /// io::ReadUncertainDataset; empty for purely in-memory data) — it keys
  /// the default .usmp sidecar location and its staleness guard.
  /// `samples_sidecar_path` pins a specific .usmp sidecar (set from the
  /// service dataset registry). Neither annotation survives Subsampled():
  /// a subsample is a different object set than the file's.
  void set_source_path(std::string path) { source_path_ = std::move(path); }
  const std::string& source_path() const { return source_path_; }
  void set_samples_sidecar_path(std::string path) {
    samples_sidecar_path_ = std::move(path);
  }
  const std::string& samples_sidecar_path() const {
    return samples_sidecar_path_;
  }

 private:
  std::string name_;
  std::vector<uncertain::UncertainObject> objects_;
  std::vector<int> labels_;
  int num_classes_ = 0;
  std::string source_path_;
  std::string samples_sidecar_path_;
  mutable uncertain::MomentMatrix moments_;  // lazily packed
  mutable bool moments_ready_ = false;
};

}  // namespace uclust::data

#endif  // UCLUST_DATA_DATASET_H_
