// Small shared helpers for the bench executables.
#ifndef UCLUST_BENCH_BENCH_UTIL_H_
#define UCLUST_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "clustering/result_json.h"
#include "clustering/simd/simd.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "uncertain/moments.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace uclust::bench {

/// Lifetime peak resident set size of this process in KB (getrusage
/// ru_maxrss; 0 where unsupported). Monotone high-water mark: a reading is
/// attributable to a phase only if no heavier phase preceded it.
inline long PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;
#endif
  return 0;
}

/// Hardware concurrency of the machine running the bench (0 when the
/// runtime cannot determine it). Recorded in every bench JSON so archived
/// artifacts are interpretable across runners: a parallel speedup of ~1.0x
/// on hardware_threads=1 is the machine's ceiling, not a regression.
inline unsigned HardwareThreads() { return std::thread::hardware_concurrency(); }

/// Strict engine-knob parsing for bench/tool main()s: every canonical knob
/// present in `args` is applied via common::ParseEngineFlags; a malformed
/// value prints "<tool>: <message>" to stderr and exits 1 (uniform across
/// binaries).
inline engine::EngineConfig EngineConfigFromFlagsOrDie(
    const common::ArgParser& args, const char* tool) {
  engine::EngineConfig cfg;
  const common::Status st = common::ParseEngineFlags(args, &cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", tool, st.ToString().c_str());
    std::exit(1);
  }
  return cfg;
}

/// The engine of a backend smoke's --mode, set through the budget alone:
/// "resident" runs budget-free, so every store stays resident; "mapped"
/// keeps the --memory_budget_mb/--memory_budget_bytes budget, or else takes
/// 1/8 of `resident_bytes`, which the resident block cannot fit. Any other
/// mode prints "<tool>: --mode must be mapped or resident" and exits 1.
inline engine::Engine SmokeModeEngine(const common::ArgParser& args,
                                      const std::string& mode,
                                      std::size_t resident_bytes,
                                      const char* tool) {
  engine::EngineConfig cfg = EngineConfigFromFlagsOrDie(args, tool);
  if (mode == "resident") {
    cfg.memory_budget_bytes = 0;
  } else if (mode == "mapped") {
    if (cfg.memory_budget_bytes == 0) {
      cfg.memory_budget_bytes = std::max<std::size_t>(resident_bytes / 8, 1);
    }
  } else {
    std::fprintf(stderr, "%s: --mode must be mapped or resident\n", tool);
    std::exit(1);
  }
  return engine::Engine(cfg);
}

/// Timing-free results fingerprint — now canonical in
/// clustering/result_json.h (the service result route hashes the same
/// bytes); this alias keeps the historical bench spelling.
inline uint64_t ResultFingerprint(std::span<const int> labels,
                                  double objective) {
  return clustering::ResultFingerprint(labels, objective);
}

/// FNV-1a over every moment byte of a view (mean, mu2, var row by row): a
/// stable fingerprint for cross-mode / cross-backend comparison in CI logs.
/// Identical for any storage backend serving the same statistics.
inline uint64_t MomentFingerprint(const uncertain::MomentView& view) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::span<const double> row) {
    for (double v : row) {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      for (int b = 0; b < 64; b += 8) {
        h ^= (bits >> b) & 0xff;
        h *= 1099511628211ull;
      }
    }
  };
  for (std::size_t i = 0; i < view.size(); ++i) {
    mix(view.mean(i));
    mix(view.second_moment(i));
    mix(view.variance(i));
  }
  return h;
}

/// One ISA path's ED^ tile throughput — the compact kernel_throughput axis
/// the macro benches (fig4) embed so archived JSONs tie algorithm-level
/// runtimes to the machine's kernel-level ceiling.
struct KernelThroughputRow {
  std::string isa;
  double ed2_evals_per_s = 0.0;
  double ed2_gb_per_s = 0.0;
};

/// Measures the closed-form ED^ tile kernel (tile_rows x n evaluations of
/// dimension m, a gather tile's access shape) per compiled-and-supported ISA
/// path. Runs each path for at least min_ms of wall time. Deterministic
/// inputs; does not disturb the process-global dispatch state. The full
/// per-primitive microbench is bench_kernel_throughput.
inline std::vector<KernelThroughputRow> MeasureEd2TileThroughput(
    std::size_t m, std::size_t tile_rows, std::size_t n, double min_ms,
    uint64_t seed) {
  namespace simd = clustering::simd;
  common::Rng rng(seed);
  std::vector<double> means(n * m), total_var(n);
  for (double& v : means) v = rng.Uniform(-10.0, 10.0);
  for (double& v : total_var) v = rng.Uniform(0.0, 4.0 * m);
  std::vector<double> tile(tile_rows * n);
  std::vector<KernelThroughputRow> rows;
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    const simd::KernelTable* table = simd::TableFor(isa);
    if (table == nullptr) continue;
    std::size_t evals = 0;
    common::Stopwatch sw;
    do {
      for (std::size_t r = 0; r < tile_rows; ++r) {
        double* out = tile.data() + r * n;
        const double* mean_r = means.data() + r * m;
        for (std::size_t j = 0; j < n; ++j) {
          out[j] = table->ed2(mean_r, means.data() + j * m, m, total_var[r],
                              total_var[j]);
        }
      }
      evals += tile_rows * n;
    } while (sw.ElapsedMs() < min_ms);
    KernelThroughputRow row;
    row.isa = simd::IsaName(isa);
    row.ed2_evals_per_s = static_cast<double>(evals) / sw.ElapsedSeconds();
    row.ed2_gb_per_s = row.ed2_evals_per_s * (2.0 * static_cast<double>(m)) *
                       sizeof(double) / 1e9;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace uclust::bench

#endif  // UCLUST_BENCH_BENCH_UTIL_H_
