// Scalar reference path: the lane-blocked templates instantiated with a
// plain double[kLanes] "vector". This TU is the ground truth the vector paths
// are checked against, and the forced-scalar bench baseline — so the build
// disables auto-vectorization for it (see CMakeLists.txt), keeping the
// baseline honestly scalar instead of silently SSE2.
#include "clustering/simd/simd_lanes.h"

namespace uclust::clustering::simd {

namespace {

struct ScalarOps {
  struct V {
    double v[kLanes];
  };
  static V Zero() {
    V r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = 0.0;
    return r;
  }
  static V Splat(double x) {
    V r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = x;
    return r;
  }
  static V Load(const double* p) {
    V r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = p[i];
    return r;
  }
  static V Sub(const V& a, const V& b) {
    V r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  static V Mul(const V& a, const V& b) {
    V r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  static V Add(const V& a, const V& b) {
    V r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  static V Min(const V& a, const V& b) {
    V r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = b.v[i] < a.v[i] ? b.v[i] : a.v[i];
    }
    return r;
  }
  static V Except(const V& a, std::size_t lane, double fill) {
    V r = a;
    r.v[lane] = fill;
    return r;
  }
  static double MinLanes(const V& a) {
    V r = a;
    for (std::size_t w = kLanes / 2; w > 0; w /= 2) {
      for (std::size_t i = 0; i < w; ++i) {
        r.v[i] = r.v[i + w] < r.v[i] ? r.v[i + w] : r.v[i];
      }
    }
    return r.v[0];
  }
  static bool AnyNan(const V& a) {
    bool any = false;
    for (std::size_t i = 0; i < kLanes; ++i) any = any || a.v[i] != a.v[i];
    return any;
  }
  static void Store(double* p, const V& a) {
    for (std::size_t i = 0; i < kLanes; ++i) p[i] = a.v[i];
  }
};

constexpr KernelTable kTable = MakeTable<ScalarOps>();

}  // namespace

const KernelTable* ScalarTable() { return &kTable; }

}  // namespace uclust::clustering::simd
