#include "clustering/local_search.h"

#include <atomic>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <limits>

#include "clustering/init.h"
#include "clustering/simd/simd.h"
#include "engine/parallel_for.h"

namespace uclust::clustering {

namespace {

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
      mean_sq_(moments.size()) {
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
  t_.resize(m * k);
  for (std::vector<double>* col :
       {&offset_, &alpha_, &beta_, &omega_, &magnitude_, &norm_t_, &rm_offset_,
        &rm_alpha_, &rm_beta_, &rm_omega_, &rm_magnitude_}) {
    col->assign(k, 0.0);
  }
  for (std::size_t c = 0; c < k; ++c) {
    const ClusterMoments& s = stats[c];
    double psi = 0.0, psi_abs = 0.0, phi = 0.0, phi_abs = 0.0, tt = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double t = s.sum_mu()[j];
      psi += s.sum_var()[j];
      psi_abs += std::fabs(s.sum_var()[j]);
      phi += s.sum_mu2()[j];
      phi_abs += std::fabs(s.sum_mu2()[j]);
      tt += t * t;
      t_[j * k + c] = t;
    }
    norm_t_[c] = std::sqrt(tt);
    // J(C') - J(C) without the object's terms, and the magnitude of its
    // summands (the omega*||T||^2 part is covered by the (||T||+||mu||)^2
    // term the kernel adds per object).
    const auto fill = [&](const Weights& w, double* offset,
                          double* magnitude) {
      *offset = ((w.alpha * psi + w.beta * phi) - w.omega * tt) - obj[c];
      *magnitude = (w.alpha * psi_abs + w.beta * phi_abs) + std::fabs(obj[c]);
    };
    const Weights add = WeightsFor(kind_, s.size() + 1);
    alpha_[c] = add.alpha;
    beta_[c] = add.beta;
    omega_[c] = add.omega;
    fill(add, &offset_[c], &magnitude_[c]);
    if (s.size() >= 2) {  // singletons never move (Propose skips them)
      const Weights rm = WeightsFor(kind_, s.size() - 1);
      rm_alpha_[c] = rm.alpha;
      rm_beta_[c] = rm.beta;
      rm_omega_[c] = rm.omega;
      fill(rm, &rm_offset_[c], &rm_magnitude_[c]);
    }
  }
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

int64_t RelocationScreen::Propose(std::size_t begin, std::size_t end,
                                  const std::vector<int>& labels,
                                  double tolerance, int* proposal) const {
  const std::vector<ClusterMoments>& stats = *stats_;
  const int k = static_cast<int>(stats.size());
  const std::size_t m = moments_.dims();
  const simd::GainColumns cols{t_.data(),     offset_.data(),
                               alpha_.data(), beta_.data(),
                               omega_.data(), magnitude_.data(),
                               norm_t_.data()};
  std::vector<double> dot(k), gain(k), mag(k);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int64_t fallbacks = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const int s = labels[i];
    proposal[i] = s;
    if (stats[s].size() <= 1) continue;  // keep exactly k clusters
    const simd::GainObject o{moments_.mean(i).data(), var_sum_[i],
                             mu2_sum_[i], mean_sq_[i],
                             std::sqrt(mean_sq_[i])};
    simd::RelocationGains(cols, k, m, o, dot.data(), gain.data(), mag.data());
    // Removing the object from its source: J(S - i) - J(S).
    const double src_gain =
        ((rm_offset_[s] - rm_alpha_[s] * o.var_sum) - rm_beta_[s] * o.mu2_sum) -
        rm_omega_[s] * (o.mean_sq - (dot[s] + dot[s]));
    const double r = norm_t_[s] + o.mean_norm;
    const double src_mag =
        ((rm_magnitude_[s] + rm_alpha_[s] * o.var_sum) +
         rm_beta_[s] * o.mu2_sum) +
        rm_omega_[s] * (r * r);
    // Every exact delta lies in [g - e, g + e]. Track the target with the
    // lowest upper end and the two lowest lower ends.
    bool finite = std::isfinite(src_gain) && std::isfinite(src_mag);
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
    if (finite && !(lo1 < -tolerance)) continue;  // no target can gain
    const double other_lo = lo1_c == best ? lo2 : lo1;
    if (finite && best_hi < -tolerance && best_hi < other_lo) {
      proposal[i] = best;  // certainly the strict, unique best move
      continue;
    }
    proposal[i] = ExactProposal(i, s, tolerance);
    ++fallbacks;
  }
  return fallbacks;
}

LocalSearchOutcome RunLocalSearch(const uncertain::MomentView& moments,
                                  int k, const LocalSearchParams& params,
                                  common::Rng* rng,
                                  const engine::Engine& eng) {
  std::vector<int> initial =
      params.init == InitStrategy::kPlusPlus
          ? PartitionFromSeeds(moments, PlusPlusObjects(moments, k, rng))
          : RandomPartition(moments.size(), k, rng);
  return RunLocalSearchFrom(moments, k, params, std::move(initial), eng);
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
    const double tolerance =
        params.min_relative_gain * (1.0 + std::fabs(total));

    screen.BeginPass(stats, obj);
    std::atomic<int64_t> fallbacks{0};
    engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
      fallbacks.fetch_add(screen.Propose(r.begin, r.end, out.labels, tolerance,
                                         proposal.data()),
                          std::memory_order_relaxed);
    });
    out.exact_fallbacks += fallbacks.load();

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
      obj[source] = Objective(params.objective, stats[source]);
      obj[best] = Objective(params.objective, stats[best]);
      total += delta;
      ++out.moves;
      moved = true;
    }
    if (!moved) break;
  }

  // Recompute the total exactly to shed accumulated floating-point drift.
  total = 0.0;
  for (int c = 0; c < k; ++c) total += Objective(params.objective, stats[c]);
  out.objective = total;
  return out;
}

}  // namespace uclust::clustering
