#include "clustering/pairwise_store.h"

#include <algorithm>
#include <numeric>

namespace uclust::clustering {

namespace {

// Scratch bound of streaming sweeps that no tile shape sizes (dense-backend
// upper sweeps before the table exists): one bounded block, independent of
// the thread count so evaluation counts stay deterministic, and never above
// a finite budget.
constexpr std::size_t kStreamScratchBytes = std::size_t{1} << 20;  // 1 MiB

std::size_t StreamScratchTarget(std::size_t budget_bytes) {
  return budget_bytes > 0 ? std::min(kStreamScratchBytes, budget_bytes)
                          : kStreamScratchBytes;
}

// Row-block size for the parallel visitor passes over an already-filled
// buffer of `rows` rows. Purely a load-balancing choice; visitors own
// row-indexed output, so the partition never affects results.
std::size_t VisitRowBlock(const engine::Engine& eng, std::size_t rows) {
  const std::size_t lanes = static_cast<std::size_t>(eng.num_threads());
  return engine::ClampBlock(eng, rows / (lanes * 4) + 1);
}

}  // namespace

std::string PairwiseBackendName(PairwiseBackend backend) {
  switch (backend) {
    case PairwiseBackend::kDense:
      return "dense";
    case PairwiseBackend::kTiled:
      return "tiled";
  }
  return "unknown";
}

PairwiseStoreOptions PairwiseStoreOptions::FromBudget(std::size_t budget_bytes,
                                                      std::size_t n) {
  PairwiseStoreOptions o;
  o.memory_budget_bytes = budget_bytes;
  const std::size_t rows = std::max<std::size_t>(n, 1);
  const std::size_t row_bytes = rows * sizeof(double);
  // Overflow-safe "n * n * sizeof(double) <= budget" (up to one row of
  // rounding slack, which only shifts the dense/tiled boundary by < 1 row).
  const bool dense_fits =
      budget_bytes == 0 || n == 0 ||
      (budget_bytes / n) / sizeof(double) >= n;
  if (dense_fits) {
    o.backend = PairwiseBackend::kDense;
    o.tile_rows = std::clamp<std::size_t>(
        StreamScratchTarget(budget_bytes) / row_bytes, 1, rows);
    return o;
  }
  // A quarter of the budget per streaming block, in rows: one-row blocks
  // under the tightest budgets.
  o.backend = PairwiseBackend::kTiled;
  o.tile_rows =
      std::clamp<std::size_t>(budget_bytes / (4 * row_bytes), 1, rows);
  return o;
}

PairwiseStore::PairwiseStore(const engine::Engine& eng,
                             const kernels::PairwiseKernel& kernel)
    : eng_(eng),
      kernel_(kernel),
      options_(PairwiseStoreOptions::FromBudget(eng.memory_budget_bytes(),
                                                kernel.size())),
      n_(kernel.size()) {}

void PairwiseStore::NoteTableBytes(std::size_t extra_scratch_bytes) {
  const std::size_t live =
      dense_.size() * sizeof(double) + extra_scratch_bytes;
  table_bytes_peak_ = std::max(table_bytes_peak_, live);
}

void PairwiseStore::EnsureDense() {
  if (dense_ready_) return;
  evaluations_ += kernels::FillDenseTriangular(eng_, kernel_, &dense_);
  dense_ready_ = true;
  NoteTableBytes(0);
}

void PairwiseStore::Warm() {
  if (options_.backend == PairwiseBackend::kDense) EnsureDense();
}

std::span<const double> PairwiseStore::Row(std::size_t i,
                                           std::vector<double>* scratch) {
  Warm();
  if (dense_ready_) {
    ++warm_hits_;
    return {dense_.data() + i * n_, n_};
  }
  scratch->resize(n_);
  evaluations_ +=
      kernels::FillGatherTile(eng_, kernel_, {&i, 1}, scratch->data());
  ++warm_misses_;
  return *scratch;
}

void PairwiseStore::ScoreRow(std::size_t i,
                             std::span<const std::size_t> cols, double* out) {
  if (dense_ready_) {
    const double* row = dense_.data() + i * n_;
    for (std::size_t t = 0; t < cols.size(); ++t) out[t] = row[cols[t]];
    return;
  }
  std::size_t begin = 0;
  for (std::size_t t = 0; t <= cols.size(); ++t) {
    if (t < cols.size() && cols[t] != i) continue;
    if (t > begin) {
      kernel_.EvalRow(i, cols.data() + begin, t - begin, out + begin);
      evaluations_.fetch_add(static_cast<int64_t>(t - begin),
                             std::memory_order_relaxed);
    }
    if (t < cols.size()) out[t] = 0.0;
    begin = t + 1;
  }
}

void PairwiseStore::ReportTo(ClusteringResult* result) const {
  const int64_t evaluations = evaluations_.load();
  if (kernel_.counts_ed_evaluations()) result->ed_evaluations += evaluations;
  result->pairwise_backend = PairwiseBackendName(options_.backend);
  result->table_bytes_peak = table_bytes_peak_;
  result->pair_evaluations = evaluations;
  result->tile_warm_hits = warm_hits_;
  result->tile_warm_misses = warm_misses_;
  result->pairs_pruned = pruned_pairs_;
}

void PairwiseStore::VisitSymmetricBlock(
    std::span<const std::size_t> ids,
    const std::function<void(std::size_t, std::span<const double>)>& fn) {
  const std::size_t s = ids.size();
  if (s == 0) return;
  if (dense_ready_) {
    // Each row gathered from the table into a per-block row buffer.
    warm_hits_ += static_cast<int64_t>(s);
    engine::ParallelFor(eng_, s, [&](const engine::BlockedRange& r) {
      std::vector<double> row(s);
      for (std::size_t a = r.begin; a < r.end; ++a) {
        const double* table_row = dense_.data() + ids[a] * n_;
        for (std::size_t b = 0; b < s; ++b) row[b] = table_row[ids[b]];
        fn(a, row);
      }
    });
    return;
  }
  // Scratch bound for the block: the stream bound, raised on the tiled
  // backend to a quarter of the budget (the symmetric-halving fast path is
  // worth more scratch than a plain stream sweep). On the dense backend the
  // table is the budget-approved artifact, so only the stream bound applies.
  std::size_t scratch_budget =
      StreamScratchTarget(options_.memory_budget_bytes);
  if (options_.backend == PairwiseBackend::kTiled) {
    scratch_budget =
        std::max(scratch_budget, options_.memory_budget_bytes / 4);
  }
  const std::size_t stripe_rows =
      std::clamp<std::size_t>(scratch_budget / (s * sizeof(double)), 1, s);

  // Bounded row stripes, nothing materialized beyond stripe_rows x |ids|.
  // A block that fits in one stripe is computed pairwise-symmetrically, each
  // pair evaluated once; across stripes the halving is unavailable, so a
  // striped row costs |ids| - 1 evaluations — still a member-column slab,
  // never a full tile.
  std::vector<double> scratch(stripe_rows * s);
  double* d = scratch.data();
  for (std::size_t r0 = 0; r0 < s; r0 += stripe_rows) {
    const std::size_t r1 = std::min(s, r0 + stripe_rows);
    evaluations_ += stripe_rows >= s
                        ? kernels::FillSymmetricBlock(eng_, kernel_, ids, d)
                        : kernels::FillBlockRows(eng_, kernel_, ids, r0, r1,
                                                 d);
    warm_misses_ += static_cast<int64_t>(r1 - r0);
    NoteTableBytes(scratch.size() * sizeof(double));
    engine::ParallelForBlocked(
        eng_, r1 - r0, VisitRowBlock(eng_, r1 - r0),
        [&](const engine::BlockedRange& r) {
          for (std::size_t tr = r.begin; tr < r.end; ++tr) {
            fn(r0 + tr, {d + tr * s, s});
          }
        });
  }
}

void PairwiseStore::VisitUpperTriangle(const UpperVisitor& fn) {
  // Every column j > i is a candidate: each pair is evaluated exactly once.
  std::vector<std::size_t> columns(n_);
  std::iota(columns.begin(), columns.end(), std::size_t{0});
  VisitUpperTriangleCandidates(fn, [&](std::size_t i) {
    return std::span<const std::size_t>(columns).subspan(i + 1);
  });
}

void PairwiseStore::VisitUpperTriangleCandidates(
    const UpperVisitor& fn, const kernels::CandidateColumns& candidates) {
  // The producer touches only the candidate columns of each ragged row.
  StreamUpperTriangle(fn, [&](std::size_t r0, std::size_t r1, double* out) {
    return kernels::FillUpperRowTileFromCandidates(
        eng_, kernel_, r0, r1, out, candidates, &pruned_pairs_);
  });
}

void PairwiseStore::StreamUpperTriangle(const UpperVisitor& fn,
                                        const UpperTileFill& fill) {
  if (n_ == 0) return;
  if (dense_ready_) {
    const double* d = dense_.data();
    engine::ParallelForBlocked(
        eng_, n_, VisitRowBlock(eng_, n_), [&](const engine::BlockedRange& r) {
          for (std::size_t i = r.begin; i < r.end; ++i) {
            fn(i, {d + i * n_ + i + 1, n_ - i - 1});
          }
        });
    return;
  }
  const std::size_t chunk = options_.tile_rows;
  std::vector<double> scratch(chunk * n_);
  for (std::size_t r0 = 0; r0 < n_; r0 += chunk) {
    const std::size_t r1 = std::min(n_, r0 + chunk);
    evaluations_ += fill(r0, r1, scratch.data());
    NoteTableBytes(scratch.size() * sizeof(double));
    engine::ParallelForBlocked(
        eng_, r1 - r0, VisitRowBlock(eng_, r1 - r0),
        [&](const engine::BlockedRange& r) {
          for (std::size_t tr = r.begin; tr < r.end; ++tr) {
            const std::size_t i = r0 + tr;
            fn(i, {scratch.data() + tr * n_ + i + 1, n_ - i - 1});
          }
        });
  }
}

}  // namespace uclust::clustering
