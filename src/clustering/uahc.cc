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
  // from the store's rows, held by the chain below; only clusters that are
  // merge products carry an explicit distance row, kept in the `merged`
  // overlay and updated by the Lance-Williams recurrence exactly as the
  // classic in-place table was.
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

  // Base rows of the chain's singleton entries, held by the chain itself.
  // chain_rows[e] holds chain[e]'s base row, or nothing when chain[e] is a
  // merge product or its row was dropped. A base row never changes (merges
  // only retire indices), and the NN-chain revisits only its top entries: a
  // merge reads the top two rows, and the entry below them becomes the tip
  // and is re-scanned. At most `hold` rows are held, the deepest dropped
  // first; a merge pops both entries with their rows, so a retired object's
  // row is never kept.
  struct HeldRow {
    std::span<const double> row;  // empty: nothing held
    std::vector<double> scratch;  // backs `row` when the store computed it
  };
  const std::size_t hold = store.options().tile_rows;
  std::vector<HeldRow> chain_rows;
  chain_rows.reserve(n);
  std::size_t held = 0;
  std::size_t held_peak = 0;
  int64_t row_reuses = 0;

  // Pushes u onto the chain, with no row yet.
  auto push = [&](std::size_t u) {
    chain.push_back(u);
    chain_rows.emplace_back();
  };
  // Pops the top entry and frees its row.
  auto pop = [&]() {
    if (!chain_rows.back().row.empty()) --held;
    chain_rows.pop_back();
    chain.pop_back();
  };
  // The held row of singleton entry e, or nullptr (a reuse when held).
  auto held_row = [&](std::size_t e) -> const double* {
    if (chain_rows[e].row.empty()) return nullptr;
    ++row_reuses;
    return chain_rows[e].row.data();
  };
  // The distance row of entry e: its overlay row, its held base row, or its
  // base row from the store. The scan for the deepest held row costs at
  // most the chain's depth, below the n - 1 evaluations of the row it
  // makes room for.
  auto chain_row = [&](std::size_t e) -> const double* {
    const std::size_t u = chain[e];
    if (mrow[u] != nullptr) return mrow[u];
    if (const double* row = held_row(e)) return row;
    if (held == hold) {
      std::size_t deepest = 0;
      while (chain_rows[deepest].row.empty()) ++deepest;
      chain_rows[deepest] = {};
      --held;
    }
    HeldRow& h = chain_rows[e];
    h.row = store.Row(u, &h.scratch);
    held_peak = std::max(held_peak, ++held);
    return h.row.data();
  };

  // Nearest alive neighbour of the chain's tip.
  auto nearest = [&]() {
    const std::size_t u = chain.back();
    const double* row_u = chain_row(chain.size() - 1);
    std::size_t best = n;
    double best_d = std::numeric_limits<double>::infinity();
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

  std::vector<double> row_a;
  while (remaining > 1) {
    if (chain.empty()) {
      for (std::size_t u = 0; u < n; ++u) {
        if (alive[u]) {
          push(u);
          break;
        }
      }
    }
    // Grow the chain until a reciprocal nearest-neighbor pair appears.
    for (;;) {
      const std::size_t top = chain.size() - 1;
      const auto [nn, nn_d] = nearest();
      assert(nn != n);
      if (top >= 1 && nn == chain[top - 1]) {
        // Reciprocal pair (tip, nn): merge into `nn` (the earlier element).
        const std::size_t a = nn;
        const std::size_t b = chain[top];
        merges.push_back({a, b, nn_d});
        const double sa = static_cast<double>(sizes[a]);
        const double sb = static_cast<double>(sizes[b]);
        // Both operand rows, read before a's overlay row is created. The
        // tip's row was just scanned, so it is its overlay row or a held
        // base row. A singleton a's base row comes from the store, into
        // scratch, when the chain dropped it: the stack may be full with
        // the tip's row. Entries against a merged u are read from u's
        // overlay row below. A merged operand's overlay row is read in
        // place: entry u of mrow[a] is read before it is written, and
        // mrow[b] is never written.
        const bool a_was_merged = mrow[a] != nullptr;
        const bool b_was_merged = mrow[b] != nullptr;
        const double* rb = chain_row(top);
        const double* ra =
            a_was_merged ? chain_row(top - 1) : held_row(top - 1);
        if (ra == nullptr) ra = store.Row(a, &row_a).data();
        if (!a_was_merged) {
          mrow[a] = merged.emplace(a, std::vector<double>(n, 0.0))
                        .first->second.data();
        }
        for (std::size_t u = 0; u < n; ++u) {
          if (!alive[u] || u == a || u == b) continue;
          const double dua = mrow[u] && !a_was_merged ? mrow[u][a] : ra[u];
          const double dub = mrow[u] && !b_was_merged ? mrow[u][b] : rb[u];
          const double d = (sa * dua + sb * dub) / (sa + sb);
          mrow[a][u] = d;
          if (mrow[u]) mrow[u][a] = d;
        }
        pop();
        pop();
        merged.erase(b);
        mrow[b] = nullptr;
        sizes[a] += sizes[b];
        alive[b] = false;
        --remaining;
        break;
      }
      push(nn);
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
  store.ReportTo(&result);
  // Rows the chain held count as table storage, and their reuses as rows
  // served without kernel work.
  result.table_bytes_peak =
      std::max(result.table_bytes_peak, held_peak * n * sizeof(double));
  result.tile_warm_hits += row_reuses;
  return result;
}

}  // namespace uclust::clustering
