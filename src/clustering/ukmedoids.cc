#include "clustering/ukmedoids.h"

#include <cassert>
#include <limits>
#include <numeric>
#include <optional>

#include "clustering/init.h"
#include "clustering/pairwise_store.h"
#include "clustering/spatial_index.h"
#include "common/math_utils.h"
#include "common/stopwatch.h"
#include "engine/parallel_for.h"
#include "io/sample_file.h"
#include "uncertain/sample_store.h"

namespace uclust::clustering {

ClusteringResult UkMedoids::Cluster(const data::UncertainDataset& data, int k,
                                    uint64_t seed) const {
  const std::size_t n = data.size();
  assert(k >= 1 && n >= static_cast<std::size_t>(k));
  common::Rng rng(seed);
  const engine::Engine& eng = engine();

  ClusteringResult result;
  result.k_requested = k;

  // Offline phase: the pairwise ED^ store. The dense backend precomputes the
  // classic full table here; the budgeted backends defer (re)computation to
  // the per-iteration sweeps below.
  common::Stopwatch offline;
  uncertain::SampleStorePtr samples;
  if (!params_.use_closed_form) {
    samples = io::MakeSampleStoreOrResident(data, params_.samples,
                                            params_.sample_seed, eng);
  }
  const kernels::PairwiseKernel kernel =
      params_.use_closed_form
          ? kernels::PairwiseKernel::ClosedFormED2(data.objects())
          : kernels::PairwiseKernel::SampleED2(samples->view());
  PairwiseStore store(eng, kernel);
  store.Warm();
  result.offline_ms = offline.ElapsedMs();

  // Online phase: PAM-style alternation.
  common::Stopwatch online;
  std::vector<std::size_t> medoids = RandomDistinctObjects(n, k, &rng);
  result.labels.assign(n, -1);
  std::vector<std::vector<std::size_t>> members(k);
  std::vector<std::size_t> best_medoid(k);
  std::vector<double> cand_cost(n, 0.0);
  // Indexed assignment, when scoring a pair costs a kernel evaluation: a
  // per-iteration spatial index over the k medoid region boxes answers, per
  // object, which medoids could be nearest. The true nearest medoid's ED^ is
  // bracketed by its box min/max distance, so the candidate set (min
  // distance within a slacked margin of the smallest max distance) always
  // contains the argmin winner, and excluded medoids are provably strictly
  // farther. The ascending-slot strict-< scan over candidates therefore
  // picks the bit-identical label the k-medoid scan picks. A materialized
  // table scores all k medoids instead: its reads are cheaper than the index
  // (measured on the perfbench pairwise file).
  for (result.iterations = 0; result.iterations < params_.max_iters;
       ++result.iterations) {
    std::optional<SpatialIndex> midx;
    if (!store.materialized()) {
      std::vector<uncertain::Box> mboxes;
      mboxes.reserve(medoids.size());
      for (const std::size_t m : medoids) {
        mboxes.push_back(data.object(m).region());
      }
      midx.emplace(std::move(mboxes), SpatialIndexKind::kRTree);
    }
    // Assignment, a block of objects at a time: each medoid in slot order
    // is scored, in one ScoreRow call along its row, against the block's
    // objects that list it as a candidate (every object when unindexed).
    // Each object keeps the first strictly smallest score, which is the
    // ascending-slot strict-< scan over its candidates.
    struct AssignCounts {
      std::size_t changed = 0;
      int64_t cands = 0;
    };
    const std::vector<AssignCounts> per_block =
        engine::MapBlocks<AssignCounts>(
            eng, n, [&](const engine::BlockedRange& r) {
              AssignCounts ac;
              const std::size_t len = r.end - r.begin;
              std::vector<std::size_t> block(len);
              std::iota(block.begin(), block.end(), r.begin);
              std::vector<std::vector<std::size_t>> listing(midx ? k : 0);
              if (midx) {
                std::vector<std::size_t> cand;
                for (const std::size_t i : block) {
                  midx->NearestCandidates(data.object(i).region(), &cand);
                  for (const std::size_t c : cand) listing[c].push_back(i);
                  ac.cands += static_cast<int64_t>(cand.size());
                }
              }
              std::vector<double> best_d(
                  len, std::numeric_limits<double>::infinity());
              std::vector<int> best(len, 0);
              std::vector<double> scores;
              for (int c = 0; c < k; ++c) {
                const std::vector<std::size_t>& objects =
                    midx ? listing[c] : block;
                scores.resize(objects.size());
                store.ScoreRow(medoids[c], objects, scores.data());
                for (std::size_t q = 0; q < objects.size(); ++q) {
                  const std::size_t t = objects[q] - r.begin;
                  if (scores[q] < best_d[t]) {
                    best_d[t] = scores[q];
                    best[t] = c;
                  }
                }
              }
              for (std::size_t t = 0; t < len; ++t) {
                if (best[t] != result.labels[r.begin + t]) {
                  result.labels[r.begin + t] = best[t];
                  ++ac.changed;
                }
              }
              return ac;
            });
    std::size_t changed = 0;
    int64_t iter_cands = 0;
    for (const AssignCounts& ac : per_block) {
      changed += ac.changed;
      iter_cands += ac.cands;
    }
    if (midx) {
      result.index_candidates += iter_cands;
      result.pairs_pruned_by_index +=
          static_cast<int64_t>(n) * k - iter_cands;
      result.index_bound_tests += midx->bound_tests();
    }
    for (auto& mlist : members) mlist.clear();
    for (std::size_t i = 0; i < n; ++i) {
      members[result.labels[i]].push_back(i);
    }
    if (changed == 0 && result.iterations > 0) break;

    // Update: each cluster's medoid minimizes the total ED^ to its members.
    // An object's candidate cost reads only its own cluster's member
    // columns, so the sweep visits one member x member slab per cluster —
    // never the full table — with row sums in the visitor, in ascending
    // member order.
    for (int c = 0; c < k; ++c) {
      const std::vector<std::size_t>& mem = members[c];
      if (mem.empty()) continue;
      store.VisitSymmetricBlock(
          mem, [&](std::size_t a, std::span<const double> row) {
            double cost = 0.0;
            for (const double v : row) cost += v;
            cand_cost[mem[a]] = cost;
          });
    }
    for (int c = 0; c < k; ++c) {
      best_medoid[c] = medoids[c];
      if (members[c].empty()) continue;
      double best_cost = std::numeric_limits<double>::infinity();
      for (std::size_t cand : members[c]) {
        if (cand_cost[cand] < best_cost) {
          best_cost = cand_cost[cand];
          best_medoid[c] = cand;
        }
      }
    }
    bool medoid_moved = false;
    for (int c = 0; c < k; ++c) {
      if (members[c].empty()) {
        medoids[c] = rng.Index(n);  // re-seed an empty cluster
        medoid_moved = true;
        continue;
      }
      if (best_medoid[c] != medoids[c]) {
        medoids[c] = best_medoid[c];
        medoid_moved = true;
      }
    }
    if (!medoid_moved) break;
  }

  // Objective: total ED^ between objects and their medoids, summed in
  // ascending i. Each cluster's members are scored against its medoid's
  // row rather than gathering k full rows; a medoid's own term is the
  // diagonal's 0.
  engine::ParallelForBlocked(
      eng, static_cast<std::size_t>(k), 1, [&](const engine::BlockedRange& r) {
        std::vector<double> dist;
        for (std::size_t c = r.begin; c < r.end; ++c) {
          const std::vector<std::size_t>& mem = members[c];
          dist.resize(mem.size());
          store.ScoreRow(medoids[c], mem, dist.data());
          for (std::size_t t = 0; t < mem.size(); ++t) {
            cand_cost[mem[t]] = dist[t];
          }
        }
      });
  result.objective = 0.0;
  for (std::size_t i = 0; i < n; ++i) result.objective += cand_cost[i];
  result.online_ms = online.ElapsedMs();
  store.ReportTo(&result);
  result.clusters_found = CountClusters(result.labels);
  return result;
}

}  // namespace uclust::clustering
