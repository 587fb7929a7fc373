// Shared lane-blocked kernel bodies, templated over a per-ISA `Ops` type.
//
// Every ISA TU instantiates the SAME templates below with its own Ops
// (vector type + Zero/Splat/Load/Sub/Mul/Add/Store, plus Min, Except,
// FillFrom, MinLanes, LowestTwo, EqMask and AnyNan for the selection steps
// of the relocation stay test and the nearest-two scan, GroupOps, the
// unit a center-lane group's distances fold in, and optionally QuadOps, a
// four-double vector whose lanes are the four pairs of the four-pair
// realization sums), so the accumulation order — and therefore the
// rounding — is identical by construction: the bit-exactness contract is
// structural, not something each path re-implements and can drift on. An
// Ops vector always models exactly kLanes = 16 doubles (AVX2 packs four
// 4-wide registers, scalar a double[16]).
//
// Shape of every reduction:
//   1. vector body over the full groups [0, m - m % 16),
//   2. spill the vector accumulator to double lanes[16],
//   3. scalar tail: element full + t accumulates into lanes[t],
//   4. fixed fold tree (FoldLanes below).
// Steps 2–4 are plain scalar code shared verbatim across ISAs; step 1 is
// where the vector speedup lives and is rounding-equivalent to sixteen
// independent scalar accumulators as long as Ops never fuses mul+add
// (see the -ffp-contract=off note in simd.h). Squared distances of rows
// shorter than one group skip steps 1–3 and the identity additions of
// step 4 (ShortRow below), with the same result bits.
#ifndef UCLUST_CLUSTERING_SIMD_SIMD_LANES_H_
#define UCLUST_CLUSTERING_SIMD_SIMD_LANES_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>

#include "clustering/simd/simd.h"

namespace uclust::clustering::simd {

// The fixed fold tree of the lane block: halve lane-wise (lane j absorbs
// lane j + width/2) down to 4 survivors, then (t0 + t2) + (t1 + t3). The
// halving steps are exactly the pairwise register adds the vector paths
// perform before their one horizontal fold, so the tree is the same
// additions in the same order on every ISA. Written fully unrolled: the
// loop form made GCC materialize the intermediate array on the stack,
// which for short rows cost as much as the reduction body itself.
inline double FoldLanes(const double lanes[kLanes]) {
  // width 16 -> 8
  const double a0 = lanes[0] + lanes[8];
  const double a1 = lanes[1] + lanes[9];
  const double a2 = lanes[2] + lanes[10];
  const double a3 = lanes[3] + lanes[11];
  const double a4 = lanes[4] + lanes[12];
  const double a5 = lanes[5] + lanes[13];
  const double a6 = lanes[6] + lanes[14];
  const double a7 = lanes[7] + lanes[15];
  // width 8 -> 4
  const double b0 = a0 + a4;
  const double b1 = a1 + a5;
  const double b2 = a2 + a6;
  const double b3 = a3 + a7;
  return (b0 + b2) + (b1 + b3);
}

// Short rows (0 < m < kLanes): lanes [m, kLanes) stay +0.0 and every
// occupied lane holds one square d*d, so FoldLanes reduces to the additions
// between occupied lanes. This is exact, not a reassociation: a square, and
// any sum of squares, is never -0.0, and x + (+0.0) == x bit for bit for
// every such x (NaN and +inf included). The same argument drops the
// `0.0 + d*d` of the lane accumulation. M is a template parameter so the
// occupancy tests below are compile-time constants and each instantiation
// is straight-line code. (Ops only keeps each ISA TU's instantiation its
// own, so the -mavx2 one can never be linked into another path.)
//
// ShortRowFold is that tree over any value type: sq(t) yields element t's
// square and add(x, y) the sum x + y, so ShortRow folds doubles and
// QuadShortRowSums folds four pairs' squares lane by lane, with the same
// additions in the same order.
template <std::size_t M, class Sq, class Add>
[[gnu::always_inline]] inline auto ShortRowFold(Sq sq, Add add) {
  // lane(t) is FoldLanes' a_t (lanes t and t + 8), quad(t) its b_t (a_t
  // and a_{t+4}); an operand made only of empty lanes is left out.
  const auto lane = [&](std::size_t t) {
    return t + 8 < M ? add(sq(t), sq(t + 8)) : sq(t);
  };
  const auto quad = [&](std::size_t t) {
    return t + 4 < M ? add(lane(t), lane(t + 4)) : lane(t);
  };
  const auto c0 = 2 < M ? add(quad(0), quad(2)) : quad(0);
  if constexpr (M == 1) {
    return c0;
  } else {
    const auto c1 = 3 < M ? add(quad(1), quad(3)) : quad(1);
    return add(c0, c1);
  }
}

template <class Ops, std::size_t M>
struct ShortRow {
  static_assert(M > 0 && M < kLanes);
  static constexpr std::size_t kM = M;
  double operator()(const double* a, const double* b) const {
    return ShortRowFold<M>(
        [&](std::size_t t) {
          const double d = a[t] - b[t];
          return d * d;
        },
        [](double x, double y) { return x + y; });
  }
};

// Rows of at least one full lane group: the vector body plus the tail.
template <class Ops>
double FullRowSquaredDistance(const double* a, const double* b,
                              std::size_t m) {
  // Deliberately uninitialized: Ops::Store overwrites every lane. A blanket
  // `= {}` would put a kLanes-wide memset on every call, which for hot
  // mid-size m costs as much as the reduction itself.
  double lanes[kLanes];
  const std::size_t full = m - (m % kLanes);
  typename Ops::V acc = Ops::Zero();
  for (std::size_t j = 0; j < full; j += kLanes) {
    const typename Ops::V d = Ops::Sub(Ops::Load(a + j), Ops::Load(b + j));
    acc = Ops::Add(acc, Ops::Mul(d, d));
  }
  Ops::Store(lanes, acc);
  for (std::size_t t = 0; full + t < m; ++t) {
    const double d = a[full + t] - b[full + t];
    lanes[t] += d * d;
  }
  return FoldLanes(lanes);
}

// Calls f(row), where row(a, b) is the squared-distance kernel specialised
// for m: a ShortRow instantiation for m < kLanes, the full-group body
// otherwise. Every row has its own type, so f is instantiated per m and the
// row call inside it is direct; hoisting the choice out of a
// per-realization loop leaves the loop one straight-line body.
template <class Ops, class F>
decltype(auto) WithRowKernel(std::size_t m, F&& f) {
  static_assert(kLanes == 16, "one case per short row length");
  switch (m) {
    case 0: return f([](const double*, const double*) { return 0.0; });
    case 1: return f(ShortRow<Ops, 1>{});
    case 2: return f(ShortRow<Ops, 2>{});
    case 3: return f(ShortRow<Ops, 3>{});
    case 4: return f(ShortRow<Ops, 4>{});
    case 5: return f(ShortRow<Ops, 5>{});
    case 6: return f(ShortRow<Ops, 6>{});
    case 7: return f(ShortRow<Ops, 7>{});
    case 8: return f(ShortRow<Ops, 8>{});
    case 9: return f(ShortRow<Ops, 9>{});
    case 10: return f(ShortRow<Ops, 10>{});
    case 11: return f(ShortRow<Ops, 11>{});
    case 12: return f(ShortRow<Ops, 12>{});
    case 13: return f(ShortRow<Ops, 13>{});
    case 14: return f(ShortRow<Ops, 14>{});
    case 15: return f(ShortRow<Ops, 15>{});
    default:
      return f([m](const double* a, const double* b) {
        return FullRowSquaredDistance<Ops>(a, b, m);
      });
  }
}

template <class Ops>
double SquaredDistanceT(const double* a, const double* b, std::size_t m) {
  return WithRowKernel<Ops>(m, [&](auto row) { return row(a, b); });
}

// The matched-realization loops of the sampled kernels: realization s of
// `a` is the row a + s*m, its partner in `b` the row b + s*b_stride
// (b_stride = 0 pairs every realization with one point). One call per
// object pair replaces S dispatched SquaredDistance calls.
template <class Ops>
double RealizationSquaredSumT(const double* a, const double* b,
                              std::size_t s_count, std::size_t m,
                              std::size_t b_stride) {
  return WithRowKernel<Ops>(m, [&](auto row) {
    double acc = 0.0;
    for (std::size_t s = 0; s < s_count; ++s) {
      acc += row(a + s * m, b + s * b_stride);
    }
    return acc;
  });
}

template <class Ops>
std::size_t RealizationsWithinT(const double* a, const double* b,
                                std::size_t s_count, std::size_t m,
                                double eps2) {
  return WithRowKernel<Ops>(m, [&](auto row) {
    std::size_t hits = 0;
    for (std::size_t s = 0; s < s_count; ++s) {
      if (row(a + s * m, b + s * m) <= eps2) ++hits;
    }
    return hits;
  });
}

// Four pairs' matched-realization sums for rows shorter than one lane
// group, on a 4-wide vector type Q (Ops::QuadOps) whose lane p belongs to
// pair p. Four realizations at a time: each pair's 4·M elements load as M
// chunks of four, are differenced within the pair (a - b, element by
// element) and transposed, so lane p of e[k] is pair p's difference at
// element k. Each realization's squares then fold in ShortRow's tree lane
// by lane, and acc adds the four realizations in s order: every lane
// performs exactly its pair's single-pair operations. Adds the whole groups
// of four realizations into acc[0, 4) and returns how many realizations
// that covered.
template <class Q, std::size_t M>
std::size_t QuadShortRowSums(const double* const* a, const double* const* b,
                             std::size_t s_count, double* acc) {
  using V = typename Q::V;
  V sum = Q::Load(acc);
  const std::size_t whole = s_count - s_count % 4;
  for (std::size_t off = 0; off < whole * M; off += 4 * M) {
    V e[4 * M];
    for (std::size_t c = 0; c < M; ++c) {
      const std::size_t at = off + 4 * c;
      V d0 = Q::Sub(Q::Load(a[0] + at), Q::Load(b[0] + at));
      V d1 = Q::Sub(Q::Load(a[1] + at), Q::Load(b[1] + at));
      V d2 = Q::Sub(Q::Load(a[2] + at), Q::Load(b[2] + at));
      V d3 = Q::Sub(Q::Load(a[3] + at), Q::Load(b[3] + at));
      Q::Transpose(&d0, &d1, &d2, &d3);
      e[4 * c] = d0;
      e[4 * c + 1] = d1;
      e[4 * c + 2] = d2;
      e[4 * c + 3] = d3;
    }
    for (std::size_t r = 0; r < 4; ++r) {
      const V* row = e + r * M;
      const auto sq = [&](std::size_t t) { return Q::Mul(row[t], row[t]); };
      const auto add = [](V x, V y) { return Q::Add(x, y); };
      sum = Q::Add(sum, ShortRowFold<M>(sq, add));
    }
  }
  Q::Store(acc, sum);
  return whole;
}

// The four-pair forms of RealizationSquaredSumT and RealizationsWithinT
// (PairwiseKernel::EvalRow's unit): pair t keeps its own accumulator with
// exactly the single-pair loop's operations, and the four advance
// together, one realization at a time, so four independent add chains
// share the latency one chain waited on alone. An Ops with a QuadOps
// vector runs the short rows' whole groups of four realizations through
// QuadShortRowSums first.
template <class Ops>
void RealizationSquaredSums4T(const double* const* a, const double* const* b,
                              std::size_t s_count, std::size_t m,
                              double* out) {
  WithRowKernel<Ops>(m, [&](auto row) {
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t start = 0;
    if constexpr (requires { typename Ops::QuadOps; decltype(row)::kM; }) {
      start = QuadShortRowSums<typename Ops::QuadOps, decltype(row)::kM>(
          a, b, s_count, acc);
    }
    const double *a0 = a[0], *a1 = a[1], *a2 = a[2], *a3 = a[3];
    const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
    double acc0 = acc[0], acc1 = acc[1], acc2 = acc[2], acc3 = acc[3];
    for (std::size_t s = start, off = start * m; s < s_count;
         ++s, off += m) {
      acc0 += row(a0 + off, b0 + off);
      acc1 += row(a1 + off, b1 + off);
      acc2 += row(a2 + off, b2 + off);
      acc3 += row(a3 + off, b3 + off);
    }
    out[0] = acc0;
    out[1] = acc1;
    out[2] = acc2;
    out[3] = acc3;
  });
}

template <class Ops>
void RealizationsWithin4T(const double* const* a, const double* const* b,
                          std::size_t s_count, std::size_t m, double eps2,
                          std::size_t* out) {
  WithRowKernel<Ops>(m, [&](auto row) {
    const double *a0 = a[0], *a1 = a[1], *a2 = a[2], *a3 = a[3];
    const double *b0 = b[0], *b1 = b[1], *b2 = b[2], *b3 = b[3];
    std::size_t hits0 = 0, hits1 = 0, hits2 = 0, hits3 = 0;
    for (std::size_t s = 0, off = 0; s < s_count; ++s, off += m) {
      hits0 += row(a0 + off, b0 + off) <= eps2;
      hits1 += row(a1 + off, b1 + off) <= eps2;
      hits2 += row(a2 + off, b2 + off) <= eps2;
      hits3 += row(a3 + off, b3 + off) <= eps2;
    }
    out[0] = hits0;
    out[1] = hits1;
    out[2] = hits2;
    out[3] = hits3;
  });
}

template <class Ops>
double SumT(const double* v, std::size_t n) {
  double lanes[kLanes];
  const std::size_t full = n - (n % kLanes);
  if (full > 0) {
    typename Ops::V acc = Ops::Zero();
    for (std::size_t j = 0; j < full; j += kLanes) {
      acc = Ops::Add(acc, Ops::Load(v + j));
    }
    Ops::Store(lanes, acc);
  } else {
    for (std::size_t t = 0; t < kLanes; ++t) lanes[t] = 0.0;
  }
  for (std::size_t t = 0; full + t < n; ++t) {
    lanes[t] += v[full + t];
  }
  return FoldLanes(lanes);
}

template <class Ops>
double Ed2T(const double* mean_lo, const double* mean_hi, std::size_t m,
            double tv_lo, double tv_hi) {
  return (SquaredDistanceT<Ops>(mean_lo, mean_hi, m) + tv_lo) + tv_hi;
}

template <class Ops>
void PackRowT(const double* mean, const double* mu2, const double* var,
              std::size_t m, double* mean_dst, double* mu2_dst,
              double* var_dst, double* total_var_dst) {
  std::copy(mean, mean + m, mean_dst);
  std::copy(mu2, mu2 + m, mu2_dst);
  std::copy(var, var + m, var_dst);
  *total_var_dst = SumT<Ops>(var, m);
}

// One center-lane group's fold (see CenterGroupDistances) over the centers
// of one G::V: coordinate lane t, FoldLanes' a_t and b_t built from them,
// and the root.
template <class G>
struct CenterGroup {
  using V = typename G::V;
  const double* point;
  const double* group;
  std::size_t stride;
  std::size_t m;
  std::size_t used;  // min(m, kLanes): the occupied coordinate lanes

  [[gnu::always_inline]] V Lane(std::size_t t) const {
    V d = G::Sub(G::Splat(point[t]), G::Load(group + t * stride));
    V acc = G::Mul(d, d);
    for (std::size_t j = t + kLanes; j < m; j += kLanes) {
      d = G::Sub(G::Splat(point[j]), G::Load(group + j * stride));
      acc = G::Add(acc, G::Mul(d, d));
    }
    return acc;
  }
  [[gnu::always_inline]] V Pair(std::size_t t) const {
    return t + 8 < used ? G::Add(Lane(t), Lane(t + 8)) : Lane(t);
  }
  [[gnu::always_inline]] V Quad(std::size_t t) const {
    return t + 4 < used ? G::Add(Pair(t), Pair(t + 4)) : Pair(t);
  }
  [[gnu::always_inline]] V Fold() const {
    if (used == 0) return G::Splat(0.0);
    const V b0 = Quad(0);
    const V c0 = 2 < used ? G::Add(b0, Quad(2)) : b0;
    if (used == 1) return c0;
    const V b1 = Quad(1);
    const V c1 = 3 < used ? G::Add(b1, Quad(3)) : b1;
    return G::Add(c0, c1);
  }
};

// Squared distances from `point` to the kLanes centers of one center-lane
// group (`group` = the group's first column, rows `stride` apart), into
// d2[0, kLanes). Each center gets exactly squared_distance's operations:
// coordinate lane t sums the squares of coordinates t, t+16, ... in
// ascending order (the leading `0.0 +` dropped, exactly as in ShortRow),
// and the coordinate lanes fold in FoldLanes' tree, built one quad
// b_t = (l_t + l_{t+8}) + (l_{t+4} + l_{t+12}) at a time and closed as
// (b0 + b2) + (b1 + b3). As in ShortRow, an operand made only of empty
// coordinate lanes (t >= m) is left out, which is exact; m = 0 yields
// +0.0. At most five G::V are live at once, so the coordinate lanes need
// no array in memory. Ops::GroupOps sets how many centers one fold covers:
// the vector tables fold all kLanes at once (one lane per center), the
// scalar table one center at a time (LaneOps), where 5 live 16-double
// vectors would not fit in registers. Kept out of line: inlined into
// NearestTwoT, the group loop's per-lane row pointers went to stack slots,
// and the k = m = 16 scan ran about 10% slower.
template <class Ops>
[[gnu::noinline]] void CenterGroupDistances(const double* point,
                                            const double* group,
                                            std::size_t stride, std::size_t m,
                                            double* d2) {
  using G = typename Ops::GroupOps;
  constexpr std::size_t kWidth = sizeof(typename G::V) / sizeof(double);
  static_assert(kLanes % kWidth == 0);
  const std::size_t used = std::min(m, kLanes);
  for (std::size_t c = 0; c < kLanes; c += kWidth) {
    G::Store(d2 + c, CenterGroup<G>{point, group + c, stride, m, used}.Fold());
  }
}

// Merges one prepared lane group (reuse_c substituted, padded lanes +inf)
// into the running best b / bd and runner-up sd exactly as the ascending,
// strict-< scan over its lanes would. Without NaN the scan's outcome is a
// function of the group's two smallest values (LowestTwo): the best is the
// lowest lane equal to the smallest, m1, and the runner-up is the smallest
// of the other lanes, m2. If m1 < bd, the group takes the lead and the old
// best competes for second place; otherwise only m1 can improve sd. Every
// comparison keeps the scan's tie rule (an equal value never displaces).
// Two groups run the scan itself on their stored lanes instead: one with
// a NaN lane, which the scan skips but a vector minimum would not, and one
// whose m1 or m2 is zero, because a vector minimum picks an arbitrary one
// of two equal zeros and only zeros can be equal with different bits.
// +inf lanes never pass a strict <, so the padded lanes drop out either
// way.
template <class Ops>
[[gnu::always_inline]] inline void MergeGroup(const typename Ops::V& v,
                                              std::size_t c0, int* b,
                                              double* bd, double* sd) {
  if (!Ops::AnyNan(v)) {
    double m1, m2;
    Ops::LowestTwo(v, &m1, &m2);
    if (m1 != 0.0 && m2 != 0.0) {
      const int idx = std::countr_zero(Ops::EqMask(v, m1));
      const bool lead = m1 < *bd;
      *sd = lead ? (m2 < *bd ? m2 : *bd) : (m1 < *sd ? m1 : *sd);
      *b = lead ? static_cast<int>(c0) + idx : *b;
      *bd = lead ? m1 : *bd;
      return;
    }
  }
  double d2[kLanes];
  Ops::Store(d2, v);
  for (std::size_t t = 0; t < kLanes; ++t) {
    if (d2[t] < *bd) {
      *sd = *bd;
      *bd = d2[t];
      *b = static_cast<int>(c0 + t);
    } else if (d2[t] < *sd) {
      *sd = d2[t];
    }
  }
}

// The CK-means reduced-moment scan over the center-lane layout (see
// KernelTable::nearest_two): per lane group, CenterGroupDistances, the
// reuse_c substitution and +inf in the padded lanes, then MergeGroup; then
// the row-major tail one center at a time through SquaredDistanceT. The
// decision sequence mirrors the direct UK-means sweeps' nearest-centroid
// scan — ascending c, strict <, ties to the lower index — so routing
// through it changes no assignment and no Hamerly/Elkan bound.
template <class Ops>
void NearestTwoT(const double* point, const double* center_lanes, int k,
                 std::size_t m, int reuse_c, double reuse_d2, int* best,
                 double* best_d2, double* second_d2) {
  const std::size_t kk = static_cast<std::size_t>(k);
  const std::size_t stride = CenterLaneStride(k);
  int b = 0;
  double bd = std::numeric_limits<double>::infinity();
  double sd = std::numeric_limits<double>::infinity();
  for (std::size_t c0 = 0; c0 < std::min(kk, stride); c0 += kLanes) {
    double d2[kLanes];
    CenterGroupDistances<Ops>(point, center_lanes + c0, stride, m, d2);
    typename Ops::V v = Ops::Load(d2);
    // unsigned: reuse_c = -1 and centers of other groups fall outside
    const std::size_t reuse_lane = static_cast<std::size_t>(reuse_c) - c0;
    if (reuse_lane < kLanes) v = Ops::Except(v, reuse_lane, reuse_d2);
    if (kk - c0 < kLanes) {
      v = Ops::FillFrom(v, kk - c0, std::numeric_limits<double>::infinity());
    }
    MergeGroup<Ops>(v, c0, &b, &bd, &sd);
  }
  const double* tail = center_lanes + m * stride;
  for (std::size_t i = stride; i < kk; ++i) {
    const int c = static_cast<int>(i);
    const double d =
        c == reuse_c
            ? reuse_d2
            : SquaredDistanceT<Ops>(point, tail + (i - stride) * m, m);
    if (d < bd) {
      sd = bd;
      bd = d;
      b = c;
    } else if (d < sd) {
      sd = d;
    }
  }
  *best = b;
  *best_d2 = bd;
  *second_d2 = sd;  // inf when k == 1, matching the historical scan
}

// The relocation screen's per-cluster gains (see KernelTable). Each lane
// owns one cluster; the full groups of 16 clusters run in Ops vectors, the
// tail clusters in scalar code spelling out the same operations, so every
// path rounds identically.
template <class Ops>
void RelocationGainsT(const GainColumns& cols, int k, std::size_t m,
                      const GainObject& obj, double* dot, double* gain,
                      double* mag) {
  using V = typename Ops::V;
  const std::size_t kk = static_cast<std::size_t>(k);
  const std::size_t full = kk - (kk % kLanes);
  const V v = Ops::Splat(obj.var_sum);
  const V p = Ops::Splat(obj.mu2_sum);
  const V mean_sq = Ops::Splat(obj.mean_sq);
  const V mean_norm = Ops::Splat(obj.mean_norm);
  for (std::size_t c = 0; c < full; c += kLanes) {
    V d = Ops::Zero();
    for (std::size_t j = 0; j < m; ++j) {
      d = Ops::Add(d, Ops::Mul(Ops::Load(cols.t + j * kk + c),
                               Ops::Splat(obj.mean[j])));
    }
    const V alpha = Ops::Load(cols.alpha + c);
    const V beta = Ops::Load(cols.beta + c);
    const V omega = Ops::Load(cols.omega + c);
    const V av = Ops::Mul(alpha, v);
    const V bp = Ops::Mul(beta, p);
    const V g = Ops::Add(Ops::Add(Ops::Load(cols.offset + c), av), bp);
    const V sq = Ops::Add(Ops::Add(d, d), mean_sq);
    const V r = Ops::Add(Ops::Load(cols.norm_t + c), mean_norm);
    const V e = Ops::Add(Ops::Add(Ops::Load(cols.magnitude + c), av), bp);
    Ops::Store(dot + c, d);
    Ops::Store(gain + c, Ops::Sub(g, Ops::Mul(omega, sq)));
    Ops::Store(mag + c, Ops::Add(e, Ops::Mul(omega, Ops::Mul(r, r))));
  }
  for (std::size_t c = full; c < kk; ++c) {
    double d = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      d = d + cols.t[j * kk + c] * obj.mean[j];
    }
    const double av = cols.alpha[c] * obj.var_sum;
    const double bp = cols.beta[c] * obj.mu2_sum;
    const double g = (cols.offset[c] + av) + bp;
    const double sq = (d + d) + obj.mean_sq;
    const double r = cols.norm_t[c] + obj.mean_norm;
    const double e = (cols.magnitude[c] + av) + bp;
    dot[c] = d;
    gain[c] = g - cols.omega[c] * sq;
    mag[c] = e + cols.omega[c] * (r * r);
  }
}

// One lane group of the stay test: each lane owns one target and computes
// the selection loop's lower end with its operations, returned, and a
// finiteness term Sub(g, g) + Sub(e, e), which is +0.0 exactly when g and e
// are both finite and NaN otherwise; a NaN term clears *finite. A source in
// the group has its lane replaced by +inf (and its term by +0.0) before
// either can reach Min or AnyNan. Forced inline: called out of line, its
// vectors went through memory and the kernel ran slower than the scalar
// selection loop it replaces.
template <class Ops>
[[gnu::always_inline]] inline typename Ops::V StayGroup(
    const double* gain, const double* mag, std::size_t c, std::size_t s,
    double src_gain, double src_mag, double scale, double floor,
    bool* finite) {
  using V = typename Ops::V;
  const V g = Ops::Add(Ops::Splat(src_gain), Ops::Load(gain + c));
  const V e = Ops::Add(
      Ops::Mul(Ops::Splat(scale), Ops::Add(Ops::Splat(src_mag),
                                           Ops::Load(mag + c))),
      Ops::Splat(floor));
  V low = Ops::Sub(g, e);
  V bad = Ops::Add(Ops::Sub(g, g), Ops::Sub(e, e));
  if (s - c < kLanes) {  // unsigned: the source is in this group
    low = Ops::Except(low, s - c, std::numeric_limits<double>::infinity());
    bad = Ops::Except(bad, s - c, 0.0);
  }
  *finite = *finite && !Ops::AnyNan(bad);
  return low;
}

// The relocation screen's stay test (see KernelTable): the full lane
// groups in Ops vectors, whose lower ends meet lane-wise in Min and across
// lanes once at the end in MinLanes, then the tail targets in scalar code
// spelling out the same operations. Min's and MinLanes' treatment of NaN
// and of equal zeros differs across ISAs; neither matters: a NaN lower end
// needs a non-finite term, which already fails the test, and `+ 0.0` turns
// a zero minimum of either sign into +0.0.
template <class Ops>
bool RelocationStayT(const double* gain, const double* mag, int k,
                     int source, double src_gain, double src_mag,
                     double scale, double floor, double* lo) {
  using V = typename Ops::V;
  const std::size_t kk = static_cast<std::size_t>(k);
  const std::size_t s = static_cast<std::size_t>(source);
  const std::size_t full = kk - (kk % kLanes);
  double low = std::numeric_limits<double>::infinity();
  bool finite = true;
  if (full > 0) {
    // The first group initializes the minimum, so k < 2 * kLanes needs no
    // lane-wise Min at all.
    V low_v = StayGroup<Ops>(gain, mag, 0, s, src_gain, src_mag, scale,
                             floor, &finite);
    for (std::size_t c = kLanes; c < full; c += kLanes) {
      low_v = Ops::Min(low_v, StayGroup<Ops>(gain, mag, c, s, src_gain,
                                             src_mag, scale, floor, &finite));
    }
    low = Ops::MinLanes(low_v);
  }
  for (std::size_t c = full; c < kk; ++c) {
    if (c == s) continue;
    const double g = src_gain + gain[c];
    const double e = scale * (src_mag + mag[c]) + floor;
    finite = finite && std::isfinite(g) && std::isfinite(e);
    const double l = g - e;
    low = l < low ? l : low;
  }
  *lo = finite ? low + 0.0 : std::numeric_limits<double>::quiet_NaN();
  return finite;
}

template <class Ops>
constexpr KernelTable MakeTable() {
  return KernelTable{
      &SquaredDistanceT<Ops>, &SumT<Ops>,         &Ed2T<Ops>,
      &PackRowT<Ops>,         &NearestTwoT<Ops>,
      &RelocationGainsT<Ops>, &RelocationStayT<Ops>,
      &RealizationSquaredSumT<Ops>, &RealizationsWithinT<Ops>,
      &RealizationSquaredSums4T<Ops>, &RealizationsWithin4T<Ops>,
  };
}

}  // namespace uclust::clustering::simd

#endif  // UCLUST_CLUSTERING_SIMD_SIMD_LANES_H_
