#include "clustering/ukmedoids.h"

#include <cassert>
#include <limits>

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
  std::vector<const double*> med_rows(k);  // dense: row c = d(medoids[c], .)
  std::vector<double> cand_cost(n, 0.0);
  // The member-block sweep only pays off when rows would otherwise be
  // recomputed; on the dense backend the row sweep reads the resident table
  // zero-copy, so the block gather would be pure copy overhead.
  const bool dense = store.backend() == PairwiseBackend::kDense;
  // Indexed assignment (recompute backends only — dense rows are free after
  // Warm()): a per-iteration spatial index over the k medoid region boxes
  // answers, per object, which medoids could be nearest. The true nearest
  // medoid's ED^ is bracketed by its box min/max distance, so the candidate
  // set (min distance within a slacked margin of the smallest max distance)
  // always contains the argmin winner, and excluded medoids are provably
  // strictly farther. The ascending-slot strict-< scan over candidates
  // therefore picks the bit-identical label the k-row scan picks, without
  // gathering k full medoid rows per iteration.
  int64_t direct_evals = 0;

  for (result.iterations = 0; result.iterations < params_.max_iters;
       ++result.iterations) {
    std::size_t changed = 0;
    if (!dense) {
      std::vector<uncertain::Box> mboxes;
      mboxes.reserve(medoids.size());
      for (const std::size_t m : medoids) {
        mboxes.push_back(data.object(m).region());
      }
      const SpatialIndex midx(std::move(mboxes), SpatialIndexKind::kRTree);
      struct AssignCounts {
        std::size_t changed = 0;
        int64_t evals = 0;
        int64_t cands = 0;
      };
      const std::vector<AssignCounts> per_block =
          engine::MapBlocks<AssignCounts>(
              eng, n, [&](const engine::BlockedRange& r) {
                AssignCounts ac;
                std::vector<std::size_t> cand;
                for (std::size_t i = r.begin; i < r.end; ++i) {
                  midx.NearestCandidates(data.object(i).region(), &cand);
                  int best = 0;
                  double best_d = std::numeric_limits<double>::infinity();
                  const auto offer = [&](std::size_t slot, double d) {
                    if (d < best_d) {
                      best_d = d;
                      best = static_cast<int>(slot);
                    }
                  };
                  // Candidates are offered in slot order; the batch scores
                  // them a stack chunk at a time.
                  kernels::RowBatch batch(kernel, i, offer);
                  for (const std::size_t slot : cand) {
                    const std::size_t mid = medoids[slot];
                    // The table diagonal is exactly 0 when an object is its
                    // own medoid; scoring the pair (i, i) would return the
                    // nonzero self ED^, so match the diagonal: offer 0 in
                    // this slot's turn, after the queued ones.
                    if (mid == i) {
                      batch.Flush();
                      offer(slot, 0.0);
                      continue;
                    }
                    batch.Add(mid, slot);
                    ++ac.evals;
                  }
                  batch.Flush();
                  ac.cands += static_cast<int64_t>(cand.size());
                  if (best != result.labels[i]) {
                    result.labels[i] = best;
                    ++ac.changed;
                  }
                }
                return ac;
              });
      int64_t iter_cands = 0;
      for (const AssignCounts& ac : per_block) {
        changed += ac.changed;
        direct_evals += ac.evals;
        iter_cands += ac.cands;
      }
      result.index_candidates += iter_cands;
      result.pairs_pruned_by_index +=
          static_cast<int64_t>(n) * k - iter_cands;
      result.index_bound_tests += midx.bound_tests();
    } else {
      // Assignment to the nearest medoid: read the k medoid rows in place
      // from the resident table, then sweep objects in parallel blocks (the
      // change counter reduces over blocks in order).
      for (int c = 0; c < k; ++c) {
        med_rows[c] = store.ResidentRow(medoids[c]).data();
      }
      const std::vector<std::size_t> changed_per_block =
          engine::MapBlocks<std::size_t>(
              eng, n, [&](const engine::BlockedRange& r) {
                std::size_t block_changed = 0;
                for (std::size_t i = r.begin; i < r.end; ++i) {
                  int best = 0;
                  double best_d = std::numeric_limits<double>::infinity();
                  for (int c = 0; c < k; ++c) {
                    const double d = med_rows[c][i];
                    if (d < best_d) {
                      best_d = d;
                      best = c;
                    }
                  }
                  if (best != result.labels[i]) {
                    result.labels[i] = best;
                    ++block_changed;
                  }
                }
                return block_changed;
              });
      for (std::size_t c : changed_per_block) changed += c;
    }
    for (auto& mlist : members) mlist.clear();
    for (std::size_t i = 0; i < n; ++i) {
      members[result.labels[i]].push_back(i);
    }
    if (changed == 0 && result.iterations > 0) break;

    // Update: each cluster's medoid minimizes the total ED^ to its members.
    // An object's candidate cost reads only its own cluster's member
    // columns, so the sweep needs the per-cluster member x member blocks —
    // never the full table.
    if (dense) {
      // Resident table: every row read in place, each object summed over
      // its own cluster's member columns.
      engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const std::span<const double> row = store.ResidentRow(i);
          double cost = 0.0;
          for (std::size_t other : members[result.labels[i]]) {
            cost += row[other];
          }
          cand_cost[i] = cost;
        }
      });
    } else {
      // Tiled backend: one member x member slab per cluster (evaluated
      // symmetrically; budget-bounded stripes when the slab is too large to
      // materialize), with row sums in the visitor. Summation order over a
      // block row is ascending members — exactly the dense row sweep's order
      // restricted to the member columns, so cand_cost is bit-identical.
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
  // ascending i. The dense table serves the k medoid rows in place; a
  // recomputing backend scores each cluster's members against its medoid
  // row instead of gathering k full rows. EvalRow computes the table's
  // values, and a medoid's own term is exactly 0 like the table diagonal,
  // so the bits agree.
  if (dense) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t mid = medoids[result.labels[i]];
      cand_cost[i] = store.ResidentRow(mid)[i];
    }
  } else {
    const std::vector<int64_t> evals_per_cluster =
        engine::MapBlocksBlocked<int64_t>(
            eng, static_cast<std::size_t>(k), 1,
            [&](const engine::BlockedRange& r) {
              int64_t evals = 0;
              for (std::size_t c = r.begin; c < r.end; ++c) {
                const std::size_t mid = medoids[c];
                kernels::RowBatch batch(
                    kernel, mid,
                    [&](std::size_t i, double d) { cand_cost[i] = d; });
                for (const std::size_t i : members[c]) {
                  if (i == mid) {
                    cand_cost[i] = 0.0;
                    continue;
                  }
                  batch.Add(i, i);
                  ++evals;
                }
                batch.Flush();
              }
              return evals;
            });
    for (const int64_t e : evals_per_cluster) direct_evals += e;
  }
  result.objective = 0.0;
  for (std::size_t i = 0; i < n; ++i) result.objective += cand_cost[i];
  result.online_ms = online.ElapsedMs();
  // Indexed assignment and the recomputed objective evaluate the kernel
  // outside the store; fold those evaluations into the store's totals.
  store.ReportTo(&result, direct_evals);
  result.clusters_found = CountClusters(result.labels);
  return result;
}

}  // namespace uclust::clustering
