// Scalar reference path: the lane-blocked templates instantiated with a
// plain double[kLanes] "vector". This TU is the ground truth the vector paths
// are checked against, and the forced-scalar bench baseline — so the build
// disables auto-vectorization for it (see CMakeLists.txt), keeping the
// baseline honestly scalar instead of silently SSE2.
#include "clustering/simd/simd_lanes.h"

namespace uclust::clustering::simd {

namespace {

// One double, the unit the scalar table folds a center group in: one
// center at a time keeps the fold's five live values in registers.
struct LaneOps {
  using V = double;
  static V Splat(double x) { return x; }
  static V Load(const double* p) { return *p; }
  static V Sub(V a, V b) { return a - b; }
  static V Mul(V a, V b) { return a * b; }
  static V Add(V a, V b) { return a + b; }
  static void Store(double* p, V a) { *p = a; }
};

struct ScalarOps {
  using GroupOps = LaneOps;
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
  static V FillFrom(const V& a, std::size_t count, double fill) {
    V r = a;
    for (std::size_t i = count; i < kLanes; ++i) r.v[i] = fill;
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
  static void LowestTwo(const V& a, double* m1, double* m2) {
    double lo = a.v[0];
    double hi = std::numeric_limits<double>::infinity();
    for (std::size_t i = 1; i < kLanes; ++i) {
      if (a.v[i] < lo) {
        hi = lo;
        lo = a.v[i];
      } else if (a.v[i] < hi) {
        hi = a.v[i];
      }
    }
    *m1 = lo;
    *m2 = hi;
  }
  static unsigned EqMask(const V& a, double x) {
    unsigned mask = 0;
    for (std::size_t i = 0; i < kLanes; ++i) {
      mask |= static_cast<unsigned>(a.v[i] == x) << i;
    }
    return mask;
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
