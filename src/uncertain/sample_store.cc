#include "uncertain/sample_store.h"

#include <cassert>

#include "clustering/simd/simd.h"
#include "engine/parallel_for.h"

namespace uclust::uncertain {

std::string SampleBackendName(SampleBackend backend) {
  return backend == SampleBackend::kResident ? "resident" : "mapped";
}

void DrawObjectSamples(const UncertainObject& object, uint64_t seed,
                       std::size_t index, int samples_per_object,
                       std::span<double> out) {
  const std::size_t m = object.dims();
  assert(out.size() == static_cast<std::size_t>(samples_per_object) * m);
  common::Rng rng(common::DeriveSeed(seed, index));
  std::size_t off = 0;
  for (int s = 0; s < samples_per_object; ++s) {
    object.SampleInto(&rng, out.subspan(off, m));
    off += m;
  }
}

SampleChunkSource::~SampleChunkSource() = default;

// The matched-realization loop runs inside the simd kernel layer: one
// dispatched call per object, and the loop is compiled under the simd TUs'
// -ffp-contract=off like every other lane-blocked reduction.
double SampleView::ExpectedSquaredDistanceToPoint(
    std::size_t i, std::span<const double> y) const {
  assert(y.size() == m_);
  const double acc = clustering::simd::RealizationSquaredSum(
      ObjectSamples(i).data(), y.data(), static_cast<std::size_t>(samples_),
      m_, /*b_stride=*/0);
  return acc / samples_;
}

SampleStore::~SampleStore() = default;

const std::string& SampleStore::sidecar_path() const {
  static const std::string* empty = new std::string();
  return *empty;
}

ResidentSampleStore::ResidentSampleStore(
    std::span<const UncertainObject> objects, int samples_per_object,
    uint64_t seed, const engine::Engine& eng)
    : count_(objects.size()),
      samples_(samples_per_object),
      dims_(objects.empty() ? 0 : objects[0].dims()) {
  assert(samples_per_object > 0);
  const std::size_t row = static_cast<std::size_t>(samples_) * dims_;
  data_.resize(count_ * row);
  engine::ParallelFor(eng, count_, [&](const engine::BlockedRange& r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      assert(objects[i].dims() == dims_);
      DrawObjectSamples(objects[i], seed, i, samples_,
                        std::span<double>(data_.data() + i * row, row));
    }
  });
}

}  // namespace uclust::uncertain
