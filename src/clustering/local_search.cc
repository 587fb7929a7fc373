#include "clustering/local_search.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <limits>
#include <utility>

#include "clustering/init.h"
#include "clustering/simd/simd.h"
#include "engine/parallel_for.h"

namespace uclust::clustering {

namespace {

// Relative improvement below which a move is considered numerical noise.
constexpr double kMinRelativeGain = 1e-12;

// Weights of J(C) = alpha*Psi + beta*Phi - omega*||T||^2 (Psi, Phi summed
// over dimensions) for a cluster of `size` objects: the per-dimension
// objectives of cluster_stats.cc with the size factored out.
struct Weights {
  double alpha, beta, omega;
};

Weights WeightsFor(ObjectiveKind kind, std::size_t size) {
  const double inv = 1.0 / static_cast<double>(size);
  switch (kind) {
    case ObjectiveKind::kUcpc:
      return {inv, 1.0, inv};
    case ObjectiveKind::kMmvar:
      return {0.0, inv, inv * inv};
    case ObjectiveKind::kUkmeans:
      return {0.0, 1.0, inv};
  }
  return {0.0, 0.0, 0.0};
}

}  // namespace

RelocationScreen::RelocationScreen(const uncertain::MomentView& moments,
                                   ObjectiveKind kind,
                                   const engine::Engine& eng)
    : moments_(moments),
      kind_(kind),
      var_sum_(moments.size()),
      mu2_sum_(moments.size()),
      mean_sq_(moments.size()),
      lo_(moments.size()),
      bound_label_(moments.size(), -1) {
  const double k_const = 4.0 * static_cast<double>(moments.dims() + 16);
  bound_scale_ = k_const * DBL_EPSILON;
  bound_floor_ = k_const * DBL_MIN;
  engine::ParallelFor(eng, moments.size(), [&](const engine::BlockedRange& r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const auto var = moments.variance(i);
      const auto mu2 = moments.second_moment(i);
      const auto mean = moments.mean(i);
      double v = 0.0, p = 0.0, q = 0.0;
      bool signed_ok = true;
      for (std::size_t j = 0; j < moments.dims(); ++j) {
        signed_ok = signed_ok && var[j] >= 0.0 && mu2[j] >= 0.0;
        v += var[j];
        p += mu2[j];
        q += mean[j] * mean[j];
      }
      // The bound treats v and p as magnitudes; a negative entry would break
      // that, so such objects always take the exact path (NaN fails the
      // finiteness check).
      var_sum_[i] = signed_ok ? v : std::numeric_limits<double>::quiet_NaN();
      mu2_sum_[i] = p;
      mean_sq_[i] = q;
    }
  });
}

void RelocationScreen::BeginPass(const std::vector<ClusterMoments>& stats,
                                 const std::vector<double>& obj) {
  stats_ = &stats;
  obj_ = &obj;
  const std::size_t k = stats.size();
  const std::size_t m = moments_.dims();
  std::swap(cur_, prev_);
  cur_.t.resize(m * k);
  for (std::vector<double>* col :
       {&cur_.norm_t, &cur_.add.offset, &cur_.add.alpha, &cur_.add.beta,
        &cur_.add.omega, &cur_.add.magnitude, &cur_.rm.offset, &cur_.rm.alpha,
        &cur_.rm.beta, &cur_.rm.omega, &cur_.rm.magnitude}) {
    col->assign(k, 0.0);
  }
  cur_.size.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    const ClusterMoments& s = stats[c];
    cur_.size[c] = s.size();
    double psi = 0.0, psi_abs = 0.0, phi = 0.0, phi_abs = 0.0, tt = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double t = s.sum_mu()[j];
      psi += s.sum_var()[j];
      psi_abs += std::fabs(s.sum_var()[j]);
      phi += s.sum_mu2()[j];
      phi_abs += std::fabs(s.sum_mu2()[j]);
      tt += t * t;
      cur_.t[j * k + c] = t;
    }
    cur_.norm_t[c] = std::sqrt(tt);
    // J(C') - J(C) without the object's terms, and the magnitude of its
    // summands (the omega*||T||^2 part is covered by the (||T||+||mu||)^2
    // term the kernel adds per object).
    const auto fill = [&](std::size_t size, Side* side) {
      const Weights w = WeightsFor(kind_, size);
      side->alpha[c] = w.alpha;
      side->beta[c] = w.beta;
      side->omega[c] = w.omega;
      side->offset[c] =
          ((w.alpha * psi + w.beta * phi) - w.omega * tt) - obj[c];
      side->magnitude[c] =
          (w.alpha * psi_abs + w.beta * phi_abs) + std::fabs(obj[c]);
    };
    fill(s.size() + 1, &cur_.add);
    // Singletons never move (Propose skips them).
    if (s.size() >= 2) fill(s.size() - 1, &cur_.rm);
  }

  // Drift bounds since the previous pass, for any move out of each source:
  // its removal side plus the component-wise worst addition side. Removal
  // columns exist only for clusters of two or more objects in both passes;
  // without a previous pass of the same k every drift is infinite.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  drift_.assign(k, Drift{kInf, kInf, kInf, kInf, kInf});
  if (prev_.size.size() != k) return;
  Drift worst{0.0, 0.0, 0.0, 0.0, 0.0};
  for (std::size_t c = 0; c < k; ++c) {
    const Drift d = SideDrift(c, prev_.add, cur_.add);
    worst = {std::max(worst.offset, d.offset), std::max(worst.alpha, d.alpha),
             std::max(worst.beta, d.beta), std::max(worst.omega, d.omega),
             std::max(worst.wt, d.wt)};
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (prev_.size[c] < 2 || cur_.size[c] < 2) continue;
    const Drift d = SideDrift(c, prev_.rm, cur_.rm);
    drift_[c] = {d.offset + worst.offset, d.alpha + worst.alpha,
                 d.beta + worst.beta, d.omega + worst.omega, d.wt + worst.wt};
  }
}

RelocationScreen::Drift RelocationScreen::SideDrift(std::size_t c,
                                                    const Side& before,
                                                    const Side& after) const {
  const std::size_t k = cur_.size.size();
  // The computed change plus bound_scale_ times the magnitudes of both
  // passes, which covers the rounding of both passes' columns and of this
  // difference, and the change of the exact path's error term
  // (docs/algorithms.md, "Drift-bounded skip").
  const auto change = [&](double x, double y, double scale_x, double scale_y) {
    return std::fabs(y - x) + bound_scale_ * (scale_x + scale_y);
  };
  const double wa = before.omega[c], wb = after.omega[c];
  double wt2 = 0.0;  // ||wb T_after - wa T_before||^2
  for (std::size_t j = 0; j < moments_.dims(); ++j) {
    const double d = wb * cur_.t[j * k + c] - wa * prev_.t[j * k + c];
    wt2 += d * d;
  }
  const double na = prev_.norm_t[c], nb = cur_.norm_t[c];
  return {change(before.offset[c], after.offset[c],
                 before.magnitude[c] + wa * (na * na),
                 after.magnitude[c] + wb * (nb * nb)),
          change(before.alpha[c], after.alpha[c], before.alpha[c],
                 after.alpha[c]),
          change(before.beta[c], after.beta[c], before.beta[c], after.beta[c]),
          change(wa, wb, wa, wb),
          std::sqrt(wt2) + bound_scale_ * (wa * na + wb * nb)};
}

int RelocationScreen::ExactProposal(std::size_t i, int source,
                                    double tolerance) const {
  const std::vector<ClusterMoments>& stats = *stats_;
  const std::vector<double>& obj = *obj_;
  const double source_after =
      ObjectiveAfterRemove(kind_, stats[source], moments_, i);
  // Line 8: best target by total-objective change.
  int best = source;
  double best_delta = -tolerance;
  for (int c = 0; c < static_cast<int>(stats.size()); ++c) {
    if (c == source) continue;
    const double target_after = ObjectiveAfterAdd(kind_, stats[c], moments_, i);
    const double delta =
        (source_after + target_after) - (obj[source] + obj[c]);
    if (delta < best_delta) {
      best_delta = delta;
      best = c;
    }
  }
  return best;
}

RelocationScreen::Counts RelocationScreen::Propose(
    std::size_t begin, std::size_t end, const std::vector<int>& labels,
    double tolerance, int* proposal) {
  const std::vector<ClusterMoments>& stats = *stats_;
  const int k = static_cast<int>(stats.size());
  const std::size_t m = moments_.dims();
  const Side& add = cur_.add;
  const Side& rm = cur_.rm;
  const simd::GainColumns cols{cur_.t.data(),        add.offset.data(),
                               add.alpha.data(),     add.beta.data(),
                               add.omega.data(),     add.magnitude.data(),
                               cur_.norm_t.data()};
  std::vector<double> dot(k), gain(k), mag(k);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Counts counts;
  for (std::size_t i = begin; i < end; ++i) {
    const int s = labels[i];
    proposal[i] = s;
    if (stats[s].size() <= 1) {  // keep exactly k clusters
      bound_label_[i] = -1;
      continue;
    }
    const double mean_norm = std::sqrt(mean_sq_[i]);
    if (bound_label_[i] == s) {
      // Age the carried bound by this pass's drift, without reading the
      // moment row. The inflation covers the rounding of the drift sum and
      // of the subtraction; a NaN variance sum or an infinite drift makes
      // `aged` non-finite.
      const Drift& d = drift_[s];
      const double drift =
          (((d.offset + d.alpha * var_sum_[i]) + d.beta * mu2_sum_[i]) +
           d.omega * mean_sq_[i]) +
          d.wt * (mean_norm + mean_norm);
      const double shrink =
          (drift + bound_scale_ * (drift + std::fabs(lo_[i]))) + bound_floor_;
      const double aged = lo_[i] - shrink;
      if (std::isfinite(aged) && aged >= -tolerance) {
        lo_[i] = aged;  // still no target can gain
        ++counts.skips;
        continue;
      }
    }
    ++counts.kernel_calls;
    const simd::GainObject o{moments_.mean(i).data(), var_sum_[i],
                             mu2_sum_[i], mean_sq_[i], mean_norm};
    simd::RelocationGains(cols, k, m, o, dot.data(), gain.data(), mag.data());
    // Removing the object from its source: J(S - i) - J(S).
    const double src_gain =
        ((rm.offset[s] - rm.alpha[s] * o.var_sum) - rm.beta[s] * o.mu2_sum) -
        rm.omega[s] * (o.mean_sq - (dot[s] + dot[s]));
    const double r = cur_.norm_t[s] + o.mean_norm;
    const double src_mag =
        ((rm.magnitude[s] + rm.alpha[s] * o.var_sum) + rm.beta[s] * o.mu2_sum) +
        rm.omega[s] * (r * r);
    // Every exact delta lies in [g - e, g + e]. Most objects stay: one
    // lane-parallel minimum of the lower ends proves it, with the same lo1
    // the loop below would find (up to the sign of a zero, which aging
    // cannot see).
    bool finite = std::isfinite(src_gain) && std::isfinite(src_mag);
    double lo_min;
    if (finite &&
        simd::RelocationStay(gain.data(), mag.data(), k, s, src_gain, src_mag,
                             bound_scale_, bound_floor_, &lo_min) &&
        !(lo_min < -tolerance)) {
      lo_[i] = lo_min;
      bound_label_[i] = s;
      ++counts.vector_stays;
      continue;
    }
    // Track the target with the lowest upper end and the two lowest lower
    // ends.
    int best = s;
    double best_hi = kInf, lo1 = kInf, lo2 = kInf;
    int lo1_c = -1;
    for (int c = 0; c < k; ++c) {
      if (c == s) continue;
      const double g = src_gain + gain[c];
      const double e = bound_scale_ * (src_mag + mag[c]) + bound_floor_;
      finite = finite && std::isfinite(g) && std::isfinite(e);
      const double hi = g + e, lo = g - e;
      if (hi < best_hi) {
        best_hi = hi;
        best = c;
      }
      if (lo < lo1) {
        lo2 = lo1;
        lo1 = lo;
        lo1_c = c;
      } else if (lo < lo2) {
        lo2 = lo;
      }
    }
    // lo1 lies below every exact delta by at least the exact path's own
    // rounding bound; later passes age it instead of rerunning the kernel.
    lo_[i] = lo1;
    bound_label_[i] = finite ? s : -1;
    if (finite && !(lo1 < -tolerance)) continue;  // no target can gain
    const double other_lo = lo1_c == best ? lo2 : lo1;
    if (finite && best_hi < -tolerance && best_hi < other_lo) {
      proposal[i] = best;  // certainly the strict, unique best move
      continue;
    }
    proposal[i] = ExactProposal(i, s, tolerance);
    ++counts.exact_fallbacks;
  }
  return counts;
}

LocalSearchOutcome RunLocalSearch(const uncertain::MomentView& moments,
                                  int k, const LocalSearchParams& params,
                                  common::Rng* rng,
                                  const engine::Engine& eng) {
  return RunLocalSearchFrom(moments, k, params,
                            RandomPartition(moments.size(), k, rng), eng);
}

LocalSearchOutcome RunLocalSearchFrom(const uncertain::MomentView& moments,
                                      int k, const LocalSearchParams& params,
                                      std::vector<int> initial_labels,
                                      const engine::Engine& eng) {
  const std::size_t n = moments.size();
  assert(k >= 1 && n >= static_cast<std::size_t>(k));
  assert(initial_labels.size() == n);

  LocalSearchOutcome out;
  out.labels = std::move(initial_labels);

  // Line 3 of Algorithm 1: per-cluster aggregates and cached objectives.
  std::vector<ClusterMoments> stats(k, ClusterMoments(moments.dims()));
  for (std::size_t i = 0; i < n; ++i) {
    assert(out.labels[i] >= 0 && out.labels[i] < k);
    stats[out.labels[i]].Add(moments, i);
  }
  std::vector<double> obj(k);
  double total = 0.0;
  for (int c = 0; c < k; ++c) {
    obj[c] = Objective(params.objective, stats[c]);
    total += obj[c];
  }

  // Lines 4-16: relocation passes, restructured for parallel gain
  // evaluation. Phase 1 proposes every object's best move against the
  // aggregates frozen at pass start (embarrassingly parallel, O(n k m));
  // phase 2 applies proposals serially in object index order, revalidating
  // each move against the live aggregates so the objective stays monotone.
  // At a fixed point no move is applied, hence the aggregates never drifted
  // during the pass and the proposals prove one-move optimality — the same
  // termination guarantee as the sequential Algorithm 1 (Proposition 4).
  RelocationScreen screen(moments, params.objective, eng);
  std::vector<int> proposal(n);
  for (out.passes = 0; out.passes < params.max_passes; ++out.passes) {
    const double tolerance = kMinRelativeGain * (1.0 + std::fabs(total));

    screen.BeginPass(stats, obj);
    std::atomic<int64_t> fallbacks{0}, skips{0}, stays{0};
    engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
      const RelocationScreen::Counts c = screen.Propose(
          r.begin, r.end, out.labels, tolerance, proposal.data());
      fallbacks.fetch_add(c.exact_fallbacks, std::memory_order_relaxed);
      skips.fetch_add(c.skips, std::memory_order_relaxed);
      stays.fetch_add(c.vector_stays, std::memory_order_relaxed);
    });
    out.exact_fallbacks += fallbacks.load();
    out.screen_skips += skips.load();
    out.vector_stays += stays.load();

    bool moved = false;
    for (std::size_t i = 0; i < n; ++i) {
      const int best = proposal[i];
      const int source = out.labels[i];
      if (best == source) continue;
      if (stats[source].size() <= 1) continue;
      const double source_after =
          ObjectiveAfterRemove(params.objective, stats[source], moments, i);
      const double target_after =
          ObjectiveAfterAdd(params.objective, stats[best], moments, i);
      const double delta =
          (source_after + target_after) - (obj[source] + obj[best]);
      if (delta >= -tolerance) continue;
      // Lines 10-13: apply the move and refresh the affected aggregates.
      stats[source].Remove(moments, i);
      stats[best].Add(moments, i);
      out.labels[i] = best;
      // ObjectiveAfterRemove/Add evaluated Objective's expressions on
      // exactly the aggregates Remove/Add just stored (sum + (-1)x is
      // sum - x and sum + 1x is sum + x), so they are its bits.
      obj[source] = source_after;
      obj[best] = target_after;
      total += delta;
      ++out.moves;
      moved = true;
    }
    if (!moved) {
      out.converged = true;
      break;
    }
  }

  // Recompute the total exactly to shed accumulated floating-point drift.
  total = 0.0;
  for (int c = 0; c < k; ++c) total += Objective(params.objective, stats[c]);
  out.objective = total;
  return out;
}

ClusteringResult LocalSearchResult(LocalSearchOutcome outcome, int k) {
  ClusteringResult result;
  result.labels = std::move(outcome.labels);
  result.k_requested = k;
  result.clusters_found = CountClusters(result.labels);
  result.iterations = outcome.passes;
  result.objective = outcome.objective;
  return result;
}

}  // namespace uclust::clustering
