// NEON path (aarch64): the 16-lane block is eight 2-wide float64x2_t
// registers (register q holds lanes 2q, 2q+1), giving eight independent
// vector add chains. Each lane still accumulates the same elements in the
// same order as the scalar reference and AVX2, and the final fold in
// FoldLanes is shared, so the bits match. NEON is baseline on aarch64 — no
// runtime cpuid gate needed, just the compile-time guard. vmulq_f64 +
// vaddq_f64 are kept unfused for the same reason as AVX2.
#include "clustering/simd/simd_lanes.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace uclust::clustering::simd {

namespace {

struct NeonOps {
  using GroupOps = NeonOps;  // a center group folds in one V
  static constexpr int kRegs = static_cast<int>(kLanes / 2);
  struct V {
    float64x2_t r[kRegs];  // r[q] holds lanes 2q, 2q+1
  };
  static V Zero() {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = vdupq_n_f64(0.0);
    return v;
  }
  static V Splat(double x) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = vdupq_n_f64(x);
    return v;
  }
  static V Load(const double* p) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = vld1q_f64(p + 2 * q);
    return v;
  }
  static V Sub(const V& a, const V& b) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = vsubq_f64(a.r[q], b.r[q]);
    return v;
  }
  static V Mul(const V& a, const V& b) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = vmulq_f64(a.r[q], b.r[q]);
    return v;
  }
  static V Add(const V& a, const V& b) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = vaddq_f64(a.r[q], b.r[q]);
    return v;
  }
  // fmin propagates NaN and orders -0.0 below +0.0.
  static V Min(const V& a, const V& b) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = vminq_f64(a.r[q], b.r[q]);
    return v;
  }
  static V Except(const V& a, std::size_t lane, double fill) {
    const uint64x2_t want = vdupq_n_u64(static_cast<uint64_t>(lane));
    const float64x2_t f = vdupq_n_f64(fill);
    V v;
    for (int q = 0; q < kRegs; ++q) {
      const uint64x2_t ids =
          vcombine_u64(vcreate_u64(static_cast<uint64_t>(2 * q)),
                       vcreate_u64(static_cast<uint64_t>(2 * q + 1)));
      v.r[q] = vbslq_f64(vceqq_u64(ids, want), f, a.r[q]);
    }
    return v;
  }
  static V FillFrom(const V& a, std::size_t count, double fill) {
    const uint64x2_t first = vdupq_n_u64(static_cast<uint64_t>(count));
    const float64x2_t f = vdupq_n_f64(fill);
    V v;
    for (int q = 0; q < kRegs; ++q) {
      const uint64x2_t ids =
          vcombine_u64(vcreate_u64(static_cast<uint64_t>(2 * q)),
                       vcreate_u64(static_cast<uint64_t>(2 * q + 1)));
      v.r[q] = vbslq_f64(vcgeq_u64(ids, first), f, a.r[q]);
    }
    return v;
  }
  static double MinLanes(const V& a) {
    float64x2_t m = a.r[0];
    for (int q = 1; q < kRegs; ++q) m = vminq_f64(m, a.r[q]);
    return vminvq_f64(m);
  }
  // The two smallest lanes of a NaN-free `a`: (smallest, runner-up) pairs
  // of the registers merge pairwise, min(lo1, lo2) and
  // min(max(lo1, lo2), min(hi1, hi2)), then across the last register's
  // two lanes.
  static void LowestTwo(const V& a, double* m1, double* m2) {
    float64x2_t lo[kRegs / 2], hi[kRegs / 2];
    for (int q = 0; q < kRegs / 2; ++q) {
      lo[q] = vminq_f64(a.r[2 * q], a.r[2 * q + 1]);
      hi[q] = vmaxq_f64(a.r[2 * q], a.r[2 * q + 1]);
    }
    for (int w = kRegs / 4; w > 0; w /= 2) {
      for (int q = 0; q < w; ++q) {
        const float64x2_t l = vminq_f64(lo[q], lo[q + w]);
        hi[q] = vminq_f64(vmaxq_f64(lo[q], lo[q + w]),
                          vminq_f64(hi[q], hi[q + w]));
        lo[q] = l;
      }
    }
    const double l0 = vgetq_lane_f64(lo[0], 0);
    const double l1 = vgetq_lane_f64(lo[0], 1);
    const double h = std::min(vgetq_lane_f64(hi[0], 0),
                              vgetq_lane_f64(hi[0], 1));
    *m1 = std::min(l0, l1);
    *m2 = std::min(std::max(l0, l1), h);
  }
  static unsigned EqMask(const V& a, double x) {
    const float64x2_t s = vdupq_n_f64(x);
    unsigned mask = 0;
    for (int q = 0; q < kRegs; ++q) {
      const uint64x2_t eq = vceqq_f64(a.r[q], s);
      mask |= static_cast<unsigned>(vgetq_lane_u64(eq, 0) & 1) << (2 * q);
      mask |= static_cast<unsigned>(vgetq_lane_u64(eq, 1) & 1) << (2 * q + 1);
    }
    return mask;
  }
  static bool AnyNan(const V& a) {
    uint64x2_t ordered = vceqq_f64(a.r[0], a.r[0]);
    for (int q = 1; q < kRegs; ++q) {
      ordered = vandq_u64(ordered, vceqq_f64(a.r[q], a.r[q]));
    }
    return (vgetq_lane_u64(ordered, 0) & vgetq_lane_u64(ordered, 1)) == 0;
  }
  static void Store(double* p, const V& a) {
    for (int q = 0; q < kRegs; ++q) vst1q_f64(p + 2 * q, a.r[q]);
  }
};

const KernelTable kTable = MakeTable<NeonOps>();

}  // namespace

const KernelTable* NeonTable() { return &kTable; }

}  // namespace uclust::clustering::simd

#else  // !defined(__aarch64__)

namespace uclust::clustering::simd {

const KernelTable* NeonTable() { return nullptr; }

}  // namespace uclust::clustering::simd

#endif
