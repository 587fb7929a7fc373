#include "clustering/kernels.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>

#include "common/math_utils.h"
#include "uncertain/expected_distance.h"

namespace uclust::clustering::kernels {

namespace {

// Row-block size for the triangular pairwise kernels. Row i costs O(n - i),
// so the linear-sweep block size would dump nearly all work into the first
// block; many small row-blocks let the pool's dynamic task counter balance
// the skew. Per-pair results are computed independently (and counters are
// integers), so the block partition never affects the values produced.
std::size_t TriangularRowBlock(const engine::Engine& eng, std::size_t n) {
  const std::size_t lanes = static_cast<std::size_t>(eng.num_threads());
  return engine::ClampBlock(eng, n / (lanes * 8) + 1);
}

// Objects per member-compaction chunk of the masked SumMeansByLabel: the
// member offsets live on the stack.
constexpr std::size_t kMemberChunk = 256;

// Scores row i against the columns [begin, end) other than i, handing each
// (j, value) to `sink` in ascending j.
template <class Sink>
void EvalColumns(const PairwiseKernel& kernel, std::size_t i,
                 std::size_t begin, std::size_t end, Sink sink) {
  RowBatch batch(kernel, i, std::move(sink));
  for (std::size_t j = begin; j < end; ++j) {
    if (j != i) batch.Add(j, j);
  }
  batch.Flush();
}

}  // namespace

void PairwiseKernel::EvalRow(std::size_t i, const std::size_t* cols,
                             std::size_t count, double* out) const {
  if (kind == Kind::kClosedFormED2) {
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t j = cols[t];
      out[t] = uncertain::ExpectedSquaredDistance(objects[std::min(i, j)],
                                                  objects[std::max(i, j)]);
    }
    return;
  }
  if (count == 0) return;
  uncertain::SampleView::RowCursor cursor(samples, i);
  const simd::KernelTable& table = simd::Active();
  const int s_count = samples.samples_per_object();
  const std::size_t s = static_cast<std::size_t>(s_count);
  const std::size_t m = samples.dims();
  const double eps2 = eps * eps;
  const std::size_t grouped = count - count % 4;
  for (std::size_t t = 0; t < grouped; t += 4) {
    const double* partner[4];
    for (std::size_t u = 0; u < 4; ++u) {
      partner[u] = cursor.Partner(cols[t + u]);
    }
    // row() only after the group's partners (a chunk switch re-resolves
    // it); each pair keeps its canonical (lo, hi) operand order.
    const double* a[4];
    const double* b[4];
    for (std::size_t u = 0; u < 4; ++u) {
      const bool row_lo = i <= cols[t + u];
      a[u] = row_lo ? cursor.row() : partner[u];
      b[u] = row_lo ? partner[u] : cursor.row();
    }
    if (kind == Kind::kDistanceProbability) {
      std::size_t hits[4];
      table.realizations_within4(a, b, s, m, eps2, hits);
      for (std::size_t u = 0; u < 4; ++u) {
        out[t + u] = static_cast<double>(hits[u]) / s_count;
      }
    } else {
      double acc[4];
      table.realization_squared_sums4(a, b, s, m, acc);
      for (std::size_t u = 0; u < 4; ++u) {
        const double ed = acc[u] / s_count;
        out[t + u] = kind == Kind::kSampleED ? std::sqrt(ed) : ed;
      }
    }
  }
  // The last count % 4 partners, one pair per single-pair simd entry, from
  // the same cursor.
  for (std::size_t t = grouped; t < count; ++t) {
    const double* partner = cursor.Partner(cols[t]);
    const bool row_lo = i <= cols[t];
    const double* a = row_lo ? cursor.row() : partner;
    const double* b = row_lo ? partner : cursor.row();
    if (kind == Kind::kDistanceProbability) {
      const std::size_t hits = table.realizations_within(a, b, s, m, eps2);
      out[t] = static_cast<double>(hits) / s_count;
    } else {
      const double ed = table.realization_squared_sum(a, b, s, m, m) / s_count;
      out[t] = kind == Kind::kSampleED ? std::sqrt(ed) : ed;
    }
  }
}

void SumMeansByLabel(const engine::Engine& eng,
                     const uncertain::MomentView& mm,
                     std::span<const int> labels, int k,
                     std::vector<double>* sums,
                     std::vector<std::size_t>* counts) {
  sums->resize(static_cast<std::size_t>(k) * mm.dims());
  counts->resize(k);
  const std::vector<uint8_t> all(k, 1);
  SumMeansByLabel(eng, mm, labels, k, all, sums, counts);
}

void SumMeansByLabel(const engine::Engine& eng,
                     const uncertain::MomentView& mm,
                     std::span<const int> labels, int k,
                     std::span<const uint8_t> resum,
                     std::vector<double>* sums,
                     std::vector<std::size_t>* counts) {
  const std::size_t m = mm.dims();
  const std::size_t km = static_cast<std::size_t>(k) * m;
  assert(sums->size() == km && counts->size() == resum.size());
  struct Partial {
    std::vector<double> sums;
    std::vector<std::size_t> counts;
  };
  std::vector<Partial> partials = engine::MapBlocks<Partial>(
      eng, mm.size(), [&](const engine::BlockedRange& r) {
        Partial p{std::vector<double>(km, 0.0),
                  std::vector<std::size_t>(k, 0)};
        // Compact the chunk's members of flagged clusters first, without a
        // branch (whether a member's cluster is flagged is data-dependent
        // and mispredicts), then add their rows in object order.
        std::array<uint32_t, kMemberChunk> members{};
        for (std::size_t begin = r.begin; begin < r.end;
             begin += kMemberChunk) {
          const std::size_t len = std::min(kMemberChunk, r.end - begin);
          std::size_t count = 0;
          for (std::size_t t = 0; t < len; ++t) {
            members[count] = static_cast<uint32_t>(t);
            count += resum[static_cast<std::size_t>(labels[begin + t])] != 0;
          }
          for (std::size_t u = 0; u < count; ++u) {
            const std::size_t i = begin + members[u];
            const std::size_t c = static_cast<std::size_t>(labels[i]);
            double* row = p.sums.data() + c * m;
            const double* mean = mm.mean(i).data();
            for (std::size_t j = 0; j < m; ++j) row[j] += mean[j];
            ++p.counts[c];
          }
        }
        return p;
      });
  // Each re-summed row starts from 0.0 and combines in block order: the
  // floating-point result is a function of the block partition only, not
  // of the thread count.
  for (std::size_t c = 0; c < resum.size(); ++c) {
    if (resum[c] == 0) continue;
    double* row = sums->data() + c * m;
    std::fill(row, row + m, 0.0);
    (*counts)[c] = 0;
    for (const Partial& p : partials) {
      for (std::size_t j = 0; j < m; ++j) row[j] += p.sums[c * m + j];
      (*counts)[c] += p.counts[c];
    }
  }
}

double AssignmentObjective(const engine::Engine& eng,
                           const uncertain::MomentView& mm,
                           std::span<const int> labels,
                           std::span<const double> centroids) {
  const std::size_t m = mm.dims();
  const std::vector<double> partials = engine::MapBlocks<double>(
      eng, mm.size(), [&](const engine::BlockedRange& r) {
        double acc = 0.0;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const std::size_t c = static_cast<std::size_t>(labels[i]);
          acc += mm.total_variance(i) +
                 common::SquaredDistance(mm.mean(i),
                                         centroids.subspan(c * m, m));
        }
        return acc;
      });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

int64_t FillDenseTriangular(const engine::Engine& eng,
                            const PairwiseKernel& kernel,
                            std::vector<double>* dist) {
  const std::size_t n = kernel.size();
  dist->assign(n * n, 0.0);
  double* d = dist->data();
  // Block owns rows [begin, end): entries (i, j) and (j, i) for j > i are
  // written by the block owning i, so blocks never write the same cell.
  const std::vector<int64_t> evals_per_block =
      engine::MapBlocksBlocked<int64_t>(
          eng, n, TriangularRowBlock(eng, n),
          [&](const engine::BlockedRange& r) {
        int64_t evals = 0;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          EvalColumns(kernel, i, i + 1, n, [&](std::size_t j, double v) {
            d[i * n + j] = v;
            d[j * n + i] = v;
          });
          evals += static_cast<int64_t>(n - 1 - i);
        }
        return evals;
      });
  int64_t total = 0;
  for (int64_t e : evals_per_block) total += e;
  return total;
}

int64_t FillUpperRowTileFromCandidates(const engine::Engine& eng,
                                       const PairwiseKernel& kernel,
                                       std::size_t row_begin,
                                       std::size_t row_end, double* out,
                                       const CandidateColumns& candidates,
                                       int64_t* pruned) {
  const std::size_t n = kernel.size();
  const std::size_t rows = row_end - row_begin;
  struct Counts {
    int64_t evals = 0;
    int64_t pruned = 0;
  };
  const std::vector<Counts> per_block = engine::MapBlocksBlocked<Counts>(
      eng, rows, TriangularRowBlock(eng, rows),
      [&](const engine::BlockedRange& r) {
        Counts c;
        for (std::size_t t = r.begin; t < r.end; ++t) {
          const std::size_t i = row_begin + t;
          double* row = out + t * n;
          std::fill(row + i + 1, row + n, 0.0);
          int64_t row_evals = 0;
          RowBatch batch(kernel, i,
                         [row](std::size_t j, double v) { row[j] = v; });
          for (const std::size_t j : candidates(i)) {
            assert(j > i && j < n);
            batch.Add(j, j);
            ++row_evals;
          }
          batch.Flush();
          c.evals += row_evals;
          c.pruned += static_cast<int64_t>(n - i - 1) - row_evals;
        }
        return c;
      });
  int64_t total = 0;
  for (const Counts& c : per_block) {
    total += c.evals;
    *pruned += c.pruned;
  }
  return total;
}

int64_t FillGatherTile(const engine::Engine& eng, const PairwiseKernel& kernel,
                       std::span<const std::size_t> rows, double* out) {
  const std::size_t n = kernel.size();
  const std::size_t count = rows.size();
  // Requested rows cost uniformly n - 1 evaluations, so the plain linear
  // partition balances; many small blocks still help when the tile is
  // shallow.
  const std::size_t block = engine::ClampBlock(
      eng, count / (static_cast<std::size_t>(eng.num_threads()) * 4) + 1);
  const std::vector<int64_t> evals_per_block =
      engine::MapBlocksBlocked<int64_t>(
          eng, count, block, [&](const engine::BlockedRange& r) {
        int64_t evals = 0;
        for (std::size_t t = r.begin; t < r.end; ++t) {
          const std::size_t i = rows[t];
          double* row = out + t * n;
          row[i] = 0.0;
          EvalColumns(kernel, i, 0, n,
                      [row](std::size_t j, double v) { row[j] = v; });
          evals += static_cast<int64_t>(n - 1);
        }
        return evals;
      });
  int64_t total = 0;
  for (int64_t e : evals_per_block) total += e;
  return total;
}

int64_t FillSymmetricBlock(const engine::Engine& eng,
                           const PairwiseKernel& kernel,
                           std::span<const std::size_t> ids, double* out) {
  const std::size_t s = ids.size();
  // Row a pairs with the s - 1 - a rows after it, the same triangular skew
  // as the whole-table fill; cells (a, b) and (b, a) belong to the block
  // owning the lower row, so no cell is written twice.
  const std::vector<int64_t> evals_per_block =
      engine::MapBlocksBlocked<int64_t>(
          eng, s, TriangularRowBlock(eng, s),
          [&](const engine::BlockedRange& r) {
        int64_t evals = 0;
        for (std::size_t a = r.begin; a < r.end; ++a) {
          out[a * s + a] = 0.0;
          RowBatch batch(kernel, ids[a], [&](std::size_t b, double v) {
            out[a * s + b] = v;
            out[b * s + a] = v;
          });
          for (std::size_t b = a + 1; b < s; ++b) batch.Add(ids[b], b);
          batch.Flush();
          evals += static_cast<int64_t>(s - 1 - a);
        }
        return evals;
      });
  int64_t total = 0;
  for (int64_t e : evals_per_block) total += e;
  return total;
}

int64_t FillBlockRows(const engine::Engine& eng, const PairwiseKernel& kernel,
                      std::span<const std::size_t> ids, std::size_t r0,
                      std::size_t r1, double* out) {
  const std::size_t s = ids.size();
  const std::size_t count = r1 - r0;
  // Rows cost uniformly |ids| - 1 evaluations, like FillGatherTile.
  const std::size_t block = engine::ClampBlock(
      eng, count / (static_cast<std::size_t>(eng.num_threads()) * 4) + 1);
  const std::vector<int64_t> evals_per_block =
      engine::MapBlocksBlocked<int64_t>(
          eng, count, block, [&](const engine::BlockedRange& r) {
        int64_t evals = 0;
        for (std::size_t t = r.begin; t < r.end; ++t) {
          const std::size_t a = r0 + t;
          double* row = out + t * s;
          row[a] = 0.0;
          RowBatch batch(kernel, ids[a],
                         [row](std::size_t b, double v) { row[b] = v; });
          for (std::size_t b = 0; b < s; ++b) {
            if (b != a) batch.Add(ids[b], b);
          }
          batch.Flush();
          evals += static_cast<int64_t>(s - 1);
        }
        return evals;
      });
  int64_t total = 0;
  for (int64_t e : evals_per_block) total += e;
  return total;
}

}  // namespace uclust::clustering::kernels
