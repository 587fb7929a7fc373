// AVX2 path: the 16-lane block is four 4-wide __m256d registers, giving
// the reduction four independent vector add chains (the scalar reference
// runs the same sixteen lanes as scalar chains). Only this TU is compiled
// with -mavx2 (when the compiler supports it); the guard below turns the
// factory into a nullptr stub otherwise, and runtime dispatch additionally
// gates on cpuid so the path never executes on hardware without AVX2. No
// fused multiply-add anywhere: _mm256_mul_pd followed by _mm256_add_pd
// rounds twice, exactly like the scalar reference.
#include "clustering/simd/simd_lanes.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace uclust::clustering::simd {

namespace {

struct Avx2Ops {
  static constexpr int kRegs = static_cast<int>(kLanes / 4);
  struct V {
    __m256d r[kRegs];  // r[q] holds lanes 4q .. 4q+3
  };
  static V Zero() {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = _mm256_setzero_pd();
    return v;
  }
  static V Splat(double x) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = _mm256_set1_pd(x);
    return v;
  }
  static V Load(const double* p) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = _mm256_loadu_pd(p + 4 * q);
    return v;
  }
  static V Sub(const V& a, const V& b) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = _mm256_sub_pd(a.r[q], b.r[q]);
    return v;
  }
  static V Mul(const V& a, const V& b) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = _mm256_mul_pd(a.r[q], b.r[q]);
    return v;
  }
  static V Add(const V& a, const V& b) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = _mm256_add_pd(a.r[q], b.r[q]);
    return v;
  }
  static void Store(double* p, const V& a) {
    for (int q = 0; q < kRegs; ++q) _mm256_storeu_pd(p + 4 * q, a.r[q]);
  }
};

const KernelTable kTable = MakeTable<Avx2Ops>();

}  // namespace

const KernelTable* Avx2Table() { return &kTable; }

}  // namespace uclust::clustering::simd

#else  // !defined(__AVX2__)

namespace uclust::clustering::simd {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace uclust::clustering::simd

#endif
