#include "clustering/uahc.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "clustering/pairwise_store.h"
#include "common/stopwatch.h"

namespace uclust::clustering {

ClusteringResult Uahc::Cluster(const data::UncertainDataset& data, int k,
                               uint64_t /*seed*/) const {
  const std::size_t n = data.size();
  assert(k >= 1 && n >= static_cast<std::size_t>(k));
  ClusteringResult result;
  result.k_requested = k;

  // Offline: the pairwise ED^ store (closed form, Lemma 3). The dense
  // backend materializes the classic full table here; budgeted backends
  // recompute singleton-singleton rows on demand during the merge loop.
  common::Stopwatch offline;
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::ClosedFormED2(data.objects());
  PairwiseStore store(engine(), kernel);
  store.Warm();
  const double offline_ms = offline.ElapsedMs();

  common::Stopwatch online;
  // NN-chain agglomeration with the UPGMA Lance-Williams update:
  // d(u, i+j) = (|i| d(u,i) + |j| d(u,j)) / (|i| + |j|).
  //
  // NN-chain performs merges in a different (non-monotone-height) order than
  // the classic greedy algorithm, but produces the same dendrogram. The full
  // dendrogram is therefore built first (n - 1 recorded merges), and the
  // k-cluster partition is obtained by replaying the n - k lowest-height
  // merges — exactly the greedy UPGMA cut.
  //
  // Distance bookkeeping: base (singleton-singleton) ED^ values are read
  // straight from the store; only clusters that are merge products carry an
  // explicit distance row, kept in the `merged` overlay and updated by the
  // Lance-Williams recurrence exactly as the classic in-place table was.
  // The value sequence is therefore bit-identical to the dense-table
  // algorithm on every backend, while table memory stays at one overlay row
  // per alive non-singleton cluster.
  struct Merge {
    std::size_t a;
    std::size_t b;
    double height;
  };
  std::vector<Merge> merges;
  merges.reserve(n - 1);
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> sizes(n, 1);
  std::vector<std::size_t> chain;
  chain.reserve(n);
  std::size_t remaining = n;

  // Overlay rows of merge-product clusters. mrow[u] points at u's row (the
  // vector buffers are heap-stable); nullptr marks a singleton whose row is
  // the store's base row. Symmetry invariant: whenever u and v both carry
  // overlay rows, mrow[u][v] == mrow[v][u] — exactly the mirrored writes of
  // the classic in-place table.
  std::unordered_map<std::size_t, std::vector<double>> merged;
  std::vector<double*> mrow(n, nullptr);

  std::vector<double> near_row;
  auto nearest = [&](std::size_t u) {
    std::size_t best = n;
    double best_d = std::numeric_limits<double>::infinity();
    const double* row_u = mrow[u];
    if (row_u == nullptr) {
      // Zero-copy when materialized; otherwise a single-row fetch (NN-chain
      // tips have no tile locality, so faulting whole tiles would multiply
      // kernel work by tile_rows). Chain tips are revisited as the chain
      // grows, and a base row never changes, so the store's warm-row cache
      // turns the revisits into warm hits. The span stays valid through
      // this scan: nothing below touches the store.
      const std::span<const double> resident = store.ResidentRow(u);
      if (!resident.empty()) {
        row_u = resident.data();
      } else {
        store.GatherRow(u, &near_row);
        row_u = near_row.data();
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (v == u || !alive[v]) continue;
      const double d = !mrow[u] && mrow[v] ? mrow[v][u] : row_u[v];
      if (d < best_d) {
        best_d = d;
        best = v;
      }
    }
    return std::pair<std::size_t, double>(best, best_d);
  };

  std::vector<double> row_a(n, 0.0);
  std::vector<double> row_b(n, 0.0);
  while (remaining > 1) {
    if (chain.empty()) {
      for (std::size_t u = 0; u < n; ++u) {
        if (alive[u]) {
          chain.push_back(u);
          break;
        }
      }
    }
    // Grow the chain until a reciprocal nearest-neighbor pair appears.
    for (;;) {
      const std::size_t tip = chain.back();
      const auto [nn, nn_d] = nearest(tip);
      assert(nn != n);
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        // Reciprocal pair (tip, nn): merge into `nn` (the earlier element).
        const std::size_t a = nn;
        const std::size_t b = tip;
        chain.pop_back();
        chain.pop_back();
        merges.push_back({a, b, nn_d});
        const double sa = static_cast<double>(sizes[a]);
        const double sb = static_cast<double>(sizes[b]);
        // Snapshot both operand rows before touching the overlay (b's
        // overlay row is about to be dropped). A snapshot of a singleton
        // operand is its base row; entries against merged u are patched
        // from u's overlay row below.
        const bool a_was_merged = mrow[a] != nullptr;
        const bool b_was_merged = mrow[b] != nullptr;
        if (a_was_merged) {
          std::copy_n(mrow[a], n, row_a.begin());
        } else {
          store.GatherRow(a, &row_a);
        }
        if (b_was_merged) {
          std::copy_n(mrow[b], n, row_b.begin());
        } else {
          store.GatherRow(b, &row_b);
        }
        if (!a_was_merged) {
          mrow[a] = merged.emplace(a, std::vector<double>(n, 0.0))
                        .first->second.data();
        }
        for (std::size_t u = 0; u < n; ++u) {
          if (!alive[u] || u == a || u == b) continue;
          const double dua =
              mrow[u] && !a_was_merged ? mrow[u][a] : row_a[u];
          const double dub =
              mrow[u] && !b_was_merged ? mrow[u][b] : row_b[u];
          const double d = (sa * dua + sb * dub) / (sa + sb);
          mrow[a][u] = d;
          if (mrow[u]) mrow[u][a] = d;
        }
        merged.erase(b);
        mrow[b] = nullptr;
        sizes[a] += sizes[b];
        alive[b] = false;
        --remaining;
        break;
      }
      chain.push_back(nn);
    }
  }

  // Cut: apply the n - k lowest merges through a union-find.
  std::stable_sort(merges.begin(), merges.end(),
                   [](const Merge& x, const Merge& y) {
                     return x.height < y.height;
                   });
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const std::size_t cut = n - static_cast<std::size_t>(k);
  for (std::size_t i = 0; i < cut; ++i) {
    parent[find(merges[i].a)] = find(merges[i].b);
  }
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(find(i));
  }
  result.labels = RelabelConsecutive(labels);
  result.clusters_found = CountClusters(result.labels);
  result.iterations = static_cast<int>(cut);
  result.objective = std::numeric_limits<double>::quiet_NaN();
  result.online_ms = online.ElapsedMs();
  result.offline_ms = offline_ms;
  result.pairwise_backend = PairwiseBackendName(store.backend());
  result.table_bytes_peak = store.table_bytes_peak();
  result.pair_evaluations = store.evaluations();
  result.tile_warm_hits = store.warm_hits();
  result.tile_warm_misses = store.warm_misses();
  return result;
}

}  // namespace uclust::clustering
