// Bounded-memory ingestion smoke: proves a file-backed dataset larger than
// the process's address-space cap can still be turned into moments and
// clustered, where the classic fully-resident construction path dies. CI
// runs this twice on the same dataset_gen-produced file under a hard
// `ulimit -v`:
//
//   --mode=stream  -> BinaryDatasetReader::ReadMomentRows decodes records
//                     straight into the moment columns; no pdf object is
//                     ever built. Expected to finish: INGEST_SMOKE RESULT=OK.
//   --mode=inram   -> ReadUncertainDataset materializes every pdf object
//                     before the moments are packed. Expected to exhaust the
//                     cap: INGEST_SMOKE RESULT=OOM.
//
// The RESULT= marker is machine-readable on purpose: CI greps for it instead
// of inspecting bare exit codes, so an unrelated crash cannot masquerade as
// the expected out-of-memory outcome (same scheme as bench_pairwise_smoke).
// Both modes print a moment-matrix fingerprint; on an uncapped run the two
// must agree (decoded moments are bit-identical to the pdf-object path). The
// CI bench job diffs them on an uncapped run.
//
// Flags:
//   --dataset=PATH   binary dataset file                      (required)
//   --mode=stream|inram                                       (default stream)
//   --k=K            clusters for the UK-means run            (default 8)
//   --batch=B        rows per decode call                     (default 4096)
//   --seed=S         clustering seed                          (default 1)
//   --threads=N --block_size=B --memory_budget_bytes=B        engine knobs
#include <cstdint>
#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clustering/ckmeans.h"
#include "common/cli.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "io/dataset_reader.h"
#include "io/ingest.h"
#include "uncertain/moments.h"

namespace {

using namespace uclust;  // NOLINT: bench brevity

int Run(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::string path = args.GetString("dataset", "");
  if (path.empty()) {
    std::fprintf(stderr, "ingest smoke: --dataset=PATH is required\n");
    return 1;
  }
  const std::string mode = args.GetString("mode", "stream");
  const int k = static_cast<int>(args.GetInt("k", 8));
  const std::size_t batch = static_cast<std::size_t>(args.GetInt("batch", 4096));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const engine::Engine eng(
      bench::EngineConfigFromFlagsOrDie(args, "ingest smoke"));

  std::printf("[ingest smoke] mode=%s dataset=%s batch=%zu budget=%zu\n",
              mode.c_str(), path.c_str(), batch, eng.memory_budget_bytes());

  common::Stopwatch sw;
  uncertain::MomentMatrix mm;
  std::vector<int> labels;
  if (mode == "stream") {
    auto result = io::StreamMomentsFromFile(path, batch, &labels);
    if (!result.ok()) {
      std::fprintf(stderr, "ingest smoke: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    mm = std::move(result).ValueOrDie();
  } else if (mode == "inram") {
    auto ds = io::ReadUncertainDataset(path);
    if (!ds.ok()) {
      std::fprintf(stderr, "ingest smoke: %s\n",
                   ds.status().ToString().c_str());
      return 1;
    }
    const data::UncertainDataset dataset = std::move(ds).ValueOrDie();
    // Copy so the matrix survives the dataset; the all-resident objects are
    // the memory hog this mode exists to demonstrate.
    mm = dataset.moments();
    labels = dataset.labels();
  } else {
    std::fprintf(stderr, "ingest smoke: --mode must be stream or inram\n");
    return 1;
  }
  const double ingest_ms = sw.ElapsedMs();
  std::printf("[ingest smoke] ingested n=%zu m=%zu in %.1fms, "
              "fingerprint=%016llx, rss=%ld KB\n",
              mm.size(), mm.dims(), ingest_ms,
              static_cast<unsigned long long>(bench::MomentFingerprint(mm)),
              bench::PeakRssKb());
  // Size sanity must precede the clustering call: RunOnMoments requires
  // n >= k (assert-only, compiled out in Release).
  if (k < 1 || mm.size() < static_cast<std::size_t>(k)) {
    std::fprintf(stderr, "ingest smoke: n=%zu smaller than k=%d\n", mm.size(),
                 k);
    std::printf("INGEST_SMOKE RESULT=FAIL\n");
    return 1;
  }

  sw.Reset();
  const auto outcome = clustering::CkMeans::RunOnMoments(
      mm, k, seed, clustering::CkMeans::Params(), eng);
  std::printf("[ingest smoke] UK-means k=%d: objective=%.4f iterations=%d "
              "in %.1fms, rss=%ld KB\n",
              k, outcome.objective, outcome.iterations, sw.ElapsedMs(),
              bench::PeakRssKb());
  if (outcome.labels.size() != mm.size()) {
    std::printf("INGEST_SMOKE RESULT=FAIL\n");
    return 1;
  }
  std::printf("INGEST_SMOKE RESULT=OK mode=%s n=%zu\n", mode.c_str(),
              mm.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::bad_alloc&) {
    // Out of memory (e.g. under a CI `ulimit -v` cap): report it in the
    // machine-readable channel and exit non-zero.
    std::printf("INGEST_SMOKE RESULT=OOM\n");
    std::fflush(stdout);
    return 3;
  }
}
