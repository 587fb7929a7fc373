// SIMD kernel layer: compile-time multi-versioned, runtime-dispatched
// inner-loop primitives for the dense arithmetic sweeps of the clustering
// stack (closed-form ED^ accumulation, moment-column packing, CK-means
// center-distance scans, relocation gains and the relocation stay test,
// and the matched-realization loops of the sampled pairwise kernels).
//
// Bit-exactness contract. Every primitive produces BIT-IDENTICAL doubles on
// every ISA path (scalar reference, AVX2). The mechanism is a
// fixed-width lane-blocked accumulation order: reductions always run over
// kLanes = 16 independent lane accumulators (lane l owns elements l, l+16,
// l+32, ...; the tail element `full + t` lands in lane t) and the lanes are
// folded in one fixed tree (FoldLanes in simd_lanes.h). AVX2 implements the
// 16-lane block as four 4-wide registers and the scalar reference as
// sixteen plain accumulators — the same
// additions in the same order, so the rounding is the same everywhere. The
// width is 16 (not one hardware register) so the vector paths run several
// independent add chains: one 4-lane accumulator would pin AVX2 to the
// same elements-per-FP-add-latency ceiling the multi-chain scalar code
// reaches, hiding the vector units entirely. Fused multiply-add is
// deliberately never used (its single rounding would diverge from the
// mul-then-add paths), and the simd TUs are compiled with -ffp-contract=off
// so a compiler cannot introduce it behind our back. This is the same
// fixed-fold discipline the engine's block grid uses for thread-count
// independence, reapplied to lane width.
//
// Dispatch. A process-global table pointer selects the active path: the
// best compiled-and-supported ISA (a cpuid probe on x86; every other target
// takes the scalar table), resolved once per process on first use. Nothing in the library changes
// it; only tests and benches call ForceIsa to pin a path. Because every
// path produces identical bits, switching the active table mid-process
// changes throughput, never values. Tests that want a specific path without
// touching the global can call TableFor(isa) directly.
//
// Layering: this header is a dependency leaf (stdlib only), so the lowest
// layers (common/math_utils, uncertain/moments) can route their hot loops
// through it without inverting the include graph.
#ifndef UCLUST_CLUSTERING_SIMD_SIMD_H_
#define UCLUST_CLUSTERING_SIMD_SIMD_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace uclust::clustering::simd {

/// Fixed accumulation width of the lane-blocked contract. Independent of
/// the hardware vector width: AVX2 packs four 4-lane registers, a scalar
/// build sixteen plain accumulators. Changing
/// this changes rounding on every path at once (it can never diverge a
/// single path).
inline constexpr std::size_t kLanes = 16;

/// Instruction-set paths. kAuto is a request (resolve to the best compiled
/// and hardware-supported path), never an active state.
enum class Isa { kScalar = 0, kAvx2 = 1, kAuto = 2 };

/// Pass-constant per-cluster columns of the relocation screen
/// (clustering/local_search.cc), each of length k unless noted.
struct GainColumns {
  const double* t;          ///< m x k row-major: row j holds T_cj for all c.
  const double* offset;     ///< object-free part of each cluster's gain.
  const double* alpha;      ///< weight of the object's variance sum.
  const double* beta;       ///< weight of the object's second-moment sum.
  const double* omega;      ///< weight of ||T_c + mu||^2.
  const double* magnitude;  ///< magnitude bound of offset's terms (>= 0).
  const double* norm_t;     ///< ||T_c||.
};

/// Per-object scalars of the relocation screen.
struct GainObject {
  const double* mean;  ///< mu, length m.
  double var_sum;      ///< v = sum_j sigma^2_j.
  double mu2_sum;      ///< p = sum_j mu2_j.
  double mean_sq;      ///< ||mu||^2.
  double mean_norm;    ///< ||mu||.
};

/// One ISA path's implementations of the inner-loop primitives. All
/// functions follow the lane-blocked accumulation order above, so any two
/// tables produce bit-identical outputs for the same inputs.
struct KernelTable {
  /// sum_j (a[j] - b[j])^2 over j in [0, m).
  double (*squared_distance)(const double* a, const double* b, std::size_t m);
  /// sum_j v[j] over j in [0, n).
  double (*sum)(const double* v, std::size_t n);
  /// Closed-form ED^ (Lemma 3): (||mu_lo - mu_hi||^2 + tv_lo) + tv_hi.
  /// The tv fold order matches the historical ExpectedSquaredDistance.
  double (*ed2)(const double* mean_lo, const double* mean_hi, std::size_t m,
                double tv_lo, double tv_hi);
  /// The canonical moment-row packing: copies the three length-m columns
  /// and writes total_var = lane-blocked sum of var (MomentMatrix::PackRow).
  void (*pack_row)(const double* mean, const double* mu2, const double* var,
                   std::size_t m, double* mean_dst, double* mu2_dst,
                   double* var_dst, double* total_var_dst);
  /// Best / runner-up center scan of one point — the CK-means reduced-moment
  /// sweep. `center_lanes` is the center-lane layout of the k centers
  /// (ToCenterLanes). Its first m rows of CenterLaneStride(k) doubles hold
  /// coordinate j of every lane-scored center in row j, so each vector lane
  /// owns one center and a group of kLanes centers is scored with no
  /// horizontal reduction: lane t of a center sums coordinates t, t+16, ...
  /// in ascending order and the lanes fold in FoldLanes' tree. Each group's
  /// best and runner-up come from its two smallest lanes, merged into the
  /// running pair as the scan below would (a group with a NaN or a zero
  /// among them runs that scan itself). A last group of at least
  /// kLanes / 2 centers is padded to a whole group; the padded lanes are
  /// computed, then set to +inf, so they never win. A shorter last group
  /// follows row-major (one m-double row per center) and is scored per
  /// center by squared_distance, which is cheaper than a mostly empty
  /// group. Either way each distance is bit-identical to
  /// squared_distance(point, center, m). Ascending c, strict <, ties to the
  /// lower index (the direct UK-means sweeps' comparison order); second_d2
  /// is +inf when k == 1. reuse_c >= 0 substitutes reuse_d2 for that
  /// center's distance without changing the decision sequence.
  void (*nearest_two)(const double* point, const double* center_lanes, int k,
                      std::size_t m, int reuse_c, double reuse_d2, int* best,
                      double* best_d2, double* second_d2);
  /// Relocation gains of one object against k clusters. Lanes run across
  /// clusters, so nothing is reduced across lanes and every path computes
  /// each cluster's values with the same operations in the same order:
  ///   dot[c]  = sum_j t[j*k + c] * mean[j], j ascending from 0.0
  ///   gain[c] = ((offset[c] + alpha[c]*v) + beta[c]*p)
  ///             - omega[c]*((dot[c] + dot[c]) + mean_sq)
  ///   mag[c]  = ((magnitude[c] + alpha[c]*v) + beta[c]*p)
  ///             + omega[c]*(r*r),  r = norm_t[c] + mean_norm
  void (*relocation_gains)(const GainColumns& cols, int k, std::size_t m,
                           const GainObject& obj, double* dot, double* gain,
                           double* mag);
  /// The relocation screen's stay test over the gain and mag columns
  /// relocation_gains wrote: for every target c != source,
  ///   g_c  = src_gain + gain[c]
  ///   e_c  = scale*(src_mag + mag[c]) + floor
  ///   lo_c = g_c - e_c
  /// (the screen's selection loop, operation for operation). Returns true
  /// iff every g_c and e_c is finite; then *lo = (min_c lo_c) + 0.0, so a
  /// zero minimum is +0.0, and +inf when there is no target (k == 1).
  /// Otherwise *lo is NaN. gain[source] and mag[source] take no part. Lanes
  /// run across targets; the minimum is exact, so every path agrees.
  bool (*relocation_stay)(const double* gain, const double* mag, int k,
                          int source, double src_gain, double src_mag,
                          double scale, double floor, double* lo);
  /// Matched-realization sum of the sampled kernels:
  ///   sum_s squared_distance(a + s*m, b + s*b_stride, m), s in [0, S),
  /// accumulated in s order from 0.0. b_stride = m pairs realization s of
  /// two objects; b_stride = 0 pairs every realization with one point.
  double (*realization_squared_sum)(const double* a, const double* b,
                                    std::size_t s_count, std::size_t m,
                                    std::size_t b_stride);
  /// Number of s in [0, S) with squared_distance(a + s*m, b + s*m, m) <=
  /// eps2 — the FDBSCAN distance-probability count.
  std::size_t (*realizations_within)(const double* a, const double* b,
                                     std::size_t s_count, std::size_t m,
                                     double eps2);
  /// Four matched-realization sums at once, one per pair t in [0, 4):
  ///   out[t] = realization_squared_sum(a[t], b[t], s_count, m, m)
  /// bit for bit. The four accumulators advance one realization at a time,
  /// so their add chains overlap instead of each waiting on its own add
  /// latency; each still adds in s order from 0.0. Pairs may share a row
  /// (PairwiseKernel::EvalRow passes its row object in every pair).
  void (*realization_squared_sums4)(const double* const* a,
                                    const double* const* b,
                                    std::size_t s_count, std::size_t m,
                                    double* out);
  /// Four realizations_within counts at once:
  ///   out[t] = realizations_within(a[t], b[t], s_count, m, eps2).
  void (*realizations_within4)(const double* const* a, const double* const* b,
                               std::size_t s_count, std::size_t m,
                               double eps2, std::size_t* out);
};

/// Table of a specific path, or nullptr when that path is not compiled in
/// or the running CPU cannot execute it. TableFor(Isa::kAuto) resolves to
/// the best available path and is never nullptr (scalar always exists).
const KernelTable* TableFor(Isa isa);

/// Best compiled-and-supported path on this machine (cpuid probe on x86).
Isa DetectBestIsa();

/// Forces the active dispatch path (tests and benches only). kAuto
/// re-resolves to DetectBestIsa(). Returns false (leaving the active path
/// unchanged) when the requested path is unavailable. Process-global: the
/// last call wins, which is safe
/// precisely because all paths are bit-identical — concurrent kernels see
/// either table and produce the same values.
bool ForceIsa(Isa isa);

/// The currently active path (resolves lazily to DetectBestIsa()).
Isa ActiveIsa();

/// The active table (never null; lazily initialized, lock-free).
const KernelTable& Active();

/// "scalar" / "avx2" / "auto".
std::string IsaName(Isa isa);

/// Parses IsaName spellings; returns false (and leaves *isa untouched) on
/// unknown input.
bool IsaFromString(const std::string& name, Isa* isa);

// ---- dispatched conveniences (the hot-path entry points) ------------------

inline double SquaredDistance(const double* a, const double* b,
                              std::size_t m) {
  return Active().squared_distance(a, b, m);
}

inline double Sum(const double* v, std::size_t n) { return Active().sum(v, n); }

inline double Ed2(const double* mean_lo, const double* mean_hi, std::size_t m,
                  double tv_lo, double tv_hi) {
  return Active().ed2(mean_lo, mean_hi, m, tv_lo, tv_hi);
}

inline void PackRow(const double* mean, const double* mu2, const double* var,
                    std::size_t m, double* mean_dst, double* mu2_dst,
                    double* var_dst, double* total_var_dst) {
  Active().pack_row(mean, mu2, var, m, mean_dst, mu2_dst, var_dst,
                    total_var_dst);
}

/// Row stride of the center-lane layout: k rounded down to whole lane
/// groups, or up when the last group holds at least kLanes / 2 centers.
/// Centers at or past the stride are the row-major tail.
inline std::size_t CenterLaneStride(int k) {
  const std::size_t kk = static_cast<std::size_t>(k);
  const std::size_t full = kk / kLanes * kLanes;
  return kk - full >= kLanes / 2 ? full + kLanes : full;
}

/// Writes the center-lane layout nearest_two reads of a flat k x m
/// row-major centroid array: with stride = CenterLaneStride(k),
/// lanes[j * stride + c] = coordinate j of center c < min(k, stride),
/// padding columns zero, followed by the centers c >= stride row-major.
/// O(k m); reuses lanes' storage.
inline void ToCenterLanes(const double* centroids, int k, std::size_t m,
                          std::vector<double>* lanes) {
  const std::size_t kk = static_cast<std::size_t>(k);
  const std::size_t stride = CenterLaneStride(k);
  const std::size_t lane_k = std::min(kk, stride);
  lanes->assign(m * stride, 0.0);
  for (std::size_t c = 0; c < lane_k; ++c) {
    for (std::size_t j = 0; j < m; ++j) {
      (*lanes)[j * stride + c] = centroids[c * m + j];
    }
  }
  lanes->insert(lanes->end(), centroids + lane_k * m, centroids + kk * m);
}

inline void NearestTwo(const double* point, const double* center_lanes, int k,
                       std::size_t m, int reuse_c, double reuse_d2, int* best,
                       double* best_d2, double* second_d2) {
  Active().nearest_two(point, center_lanes, k, m, reuse_c, reuse_d2, best,
                       best_d2, second_d2);
}

inline void RelocationGains(const GainColumns& cols, int k, std::size_t m,
                            const GainObject& obj, double* dot, double* gain,
                            double* mag) {
  Active().relocation_gains(cols, k, m, obj, dot, gain, mag);
}

inline bool RelocationStay(const double* gain, const double* mag, int k,
                           int source, double src_gain, double src_mag,
                           double scale, double floor, double* lo) {
  return Active().relocation_stay(gain, mag, k, source, src_gain, src_mag,
                                  scale, floor, lo);
}

inline double RealizationSquaredSum(const double* a, const double* b,
                                   std::size_t s_count, std::size_t m,
                                   std::size_t b_stride) {
  return Active().realization_squared_sum(a, b, s_count, m, b_stride);
}

// Per-ISA table factories (defined in their own TUs so target-specific
// compile flags stay contained). Return nullptr when not compiled in.
const KernelTable* ScalarTable();
const KernelTable* Avx2Table();

}  // namespace uclust::clustering::simd

#endif  // UCLUST_CLUSTERING_SIMD_SIMD_H_
