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

// One __m256d, lane p holding pair p: the unit of the four-pair short-row
// sums (QuadShortRowSums).
struct Avx2QuadOps {
  using V = __m256d;
  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static void Store(double* p, V a) { _mm256_storeu_pd(p, a); }
  // 4 x 4 transpose: lane k of *r_p becomes lane p of *r_k.
  [[gnu::always_inline]] static void Transpose(V* r0, V* r1, V* r2, V* r3) {
    const V t0 = _mm256_unpacklo_pd(*r0, *r1);  // 00 10 02 12
    const V t1 = _mm256_unpackhi_pd(*r0, *r1);  // 01 11 03 13
    const V t2 = _mm256_unpacklo_pd(*r2, *r3);  // 20 30 22 32
    const V t3 = _mm256_unpackhi_pd(*r2, *r3);  // 21 31 23 33
    *r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    *r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    *r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    *r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
};

struct Avx2Ops {
  using GroupOps = Avx2Ops;  // a center group folds in one V
  using QuadOps = Avx2QuadOps;
  static constexpr int kRegs = static_cast<int>(kLanes / 4);
  struct V {
    __m256d r[kRegs];  // r[q] holds lanes 4q .. 4q+3
  };
  // V{f(0), ..., f(3)}: every register index is a constant, so GCC keeps a
  // V in four registers. Behind a loop over q it can leave V a stack array,
  // copied through memory on every operation (it did in the center-group
  // kernel).
  template <class F>
  [[gnu::always_inline]] static V Each(F f) {
    static_assert(kRegs == 4);
    return V{{f(0), f(1), f(2), f(3)}};
  }
  static V Zero() {
    return Each([](int) { return _mm256_setzero_pd(); });
  }
  static V Splat(double x) {
    return Each([&](int) { return _mm256_set1_pd(x); });
  }
  static V Load(const double* p) {
    return Each([&](int q) { return _mm256_loadu_pd(p + 4 * q); });
  }
  static V Sub(const V& a, const V& b) {
    return Each([&](int q) { return _mm256_sub_pd(a.r[q], b.r[q]); });
  }
  static V Mul(const V& a, const V& b) {
    return Each([&](int q) { return _mm256_mul_pd(a.r[q], b.r[q]); });
  }
  static V Add(const V& a, const V& b) {
    return Each([&](int q) { return _mm256_add_pd(a.r[q], b.r[q]); });
  }
  // minpd returns its second operand when the lanes compare equal or
  // either is NaN.
  static V Min(const V& a, const V& b) {
    return Each([&](int q) { return _mm256_min_pd(a.r[q], b.r[q]); });
  }
  // Except and FillFrom are a compare-and-blend per register: no register
  // is spilled to pick out lanes.
  static V Except(const V& a, std::size_t lane, double fill) {
    return Blend(a, _mm256_set1_epi64x(static_cast<long long>(lane)), fill,
                 [](__m256i ids, __m256i want) {
                   return _mm256_cmpeq_epi64(ids, want);
                 });
  }
  // Lanes at or past `count` replaced by `fill`, the same way.
  static V FillFrom(const V& a, std::size_t count, double fill) {
    return Blend(a, _mm256_set1_epi64x(static_cast<long long>(count) - 1),
                 fill, [](__m256i ids, __m256i last) {
                   return _mm256_cmpgt_epi64(ids, last);
                 });
  }
  // Lane l of the result is `fill` where hit(ids, key) is all ones in the
  // lane-index vector ids = (l), else lane l of `a`.
  template <class Hit>
  [[gnu::always_inline]] static V Blend(const V& a, __m256i key, double fill,
                                        Hit hit) {
    const __m256d f = _mm256_set1_pd(fill);
    return Each([&](int q) {
      const __m256i ids =
          _mm256_setr_epi64x(4 * q, 4 * q + 1, 4 * q + 2, 4 * q + 3);
      return _mm256_blendv_pd(a.r[q], f, _mm256_castsi256_pd(hit(ids, key)));
    });
  }
  static double MinLanes(const V& a) {
    static_assert(kRegs == 4);
    const __m256d m = _mm256_min_pd(_mm256_min_pd(a.r[0], a.r[1]),
                                    _mm256_min_pd(a.r[2], a.r[3]));
    const __m128d h = _mm_min_pd(_mm256_castpd256_pd128(m),
                                 _mm256_extractf128_pd(m, 1));
    return _mm_cvtsd_f64(_mm_min_sd(h, _mm_unpackhi_pd(h, h)));
  }
  // The two smallest lanes of a NaN-free `a`, as the pairs (smallest,
  // runner-up) of lane subsets merge: across the four registers, then the
  // two halves of one, then its two lanes. Merging (lo1, hi1) with (lo2,
  // hi2) gives min(lo1, lo2) and min(max(lo1, lo2), min(hi1, hi2)).
  static void LowestTwo(const V& a, double* m1, double* m2) {
    const __m256d lo01 = _mm256_min_pd(a.r[0], a.r[1]);
    const __m256d lo23 = _mm256_min_pd(a.r[2], a.r[3]);
    const __m256d lo = _mm256_min_pd(lo01, lo23);
    const __m256d hi = _mm256_min_pd(
        _mm256_max_pd(lo01, lo23),
        _mm256_min_pd(_mm256_max_pd(a.r[0], a.r[1]),
                      _mm256_max_pd(a.r[2], a.r[3])));
    const __m128d lo_a = _mm256_castpd256_pd128(lo);
    const __m128d lo_b = _mm256_extractf128_pd(lo, 1);
    const __m128d l2 = _mm_min_pd(lo_a, lo_b);
    const __m128d h2 =
        _mm_min_pd(_mm_max_pd(lo_a, lo_b),
                   _mm_min_pd(_mm256_castpd256_pd128(hi),
                              _mm256_extractf128_pd(hi, 1)));
    const __m128d l_hi = _mm_unpackhi_pd(l2, l2);
    *m1 = _mm_cvtsd_f64(_mm_min_sd(l2, l_hi));
    *m2 = _mm_cvtsd_f64(_mm_min_sd(_mm_max_sd(l2, l_hi),
                                   _mm_min_sd(h2, _mm_unpackhi_pd(h2, h2))));
  }
  static unsigned EqMask(const V& a, double x) {
    const __m256d s = _mm256_set1_pd(x);
    unsigned mask = 0;
    for (int q = 0; q < kRegs; ++q) {
      mask |= static_cast<unsigned>(_mm256_movemask_pd(
                  _mm256_cmp_pd(a.r[q], s, _CMP_EQ_OQ)))
              << (4 * q);
    }
    return mask;
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
