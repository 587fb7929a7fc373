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
  // minpd returns its second operand when the lanes compare equal or
  // either is NaN.
  static V Min(const V& a, const V& b) {
    V v;
    for (int q = 0; q < kRegs; ++q) v.r[q] = _mm256_min_pd(a.r[q], b.r[q]);
    return v;
  }
  // A compare-and-blend per register: no register is spilled to pick out
  // the one lane.
  static V Except(const V& a, std::size_t lane, double fill) {
    const __m256i want = _mm256_set1_epi64x(static_cast<long long>(lane));
    const __m256d f = _mm256_set1_pd(fill);
    V v;
    for (int q = 0; q < kRegs; ++q) {
      const __m256i ids = _mm256_setr_epi64x(4 * q, 4 * q + 1, 4 * q + 2,
                                             4 * q + 3);
      const __m256d hit = _mm256_castsi256_pd(_mm256_cmpeq_epi64(ids, want));
      v.r[q] = _mm256_blendv_pd(a.r[q], f, hit);
    }
    return v;
  }
  static double MinLanes(const V& a) {
    static_assert(kRegs == 4);
    const __m256d m = _mm256_min_pd(_mm256_min_pd(a.r[0], a.r[1]),
                                    _mm256_min_pd(a.r[2], a.r[3]));
    const __m128d h = _mm_min_pd(_mm256_castpd256_pd128(m),
                                 _mm256_extractf128_pd(m, 1));
    return _mm_cvtsd_f64(_mm_min_sd(h, _mm_unpackhi_pd(h, h)));
  }
  static bool AnyNan(const V& a) {
    const __m256d unordered =
        _mm256_or_pd(_mm256_cmp_pd(a.r[0], a.r[1], _CMP_UNORD_Q),
                     _mm256_cmp_pd(a.r[2], a.r[3], _CMP_UNORD_Q));
    return _mm256_movemask_pd(unordered) != 0;
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
