// Out-of-core sample-store smoke: proves a dataset whose RESIDENT Monte-
// Carlo sample block (n * S * m doubles) exceeds the process's address-space
// cap still runs a sampled workload to completion on the Mapped (mmap-backed
// .usmp) SampleStore backend, where the Resident backend dies. CI runs this
// twice on the same dataset_gen-produced file under a hard `ulimit -v`:
//
//   --mode=mapped   -> under --memory_budget_mb/--memory_budget_bytes, or
//                      else a budget of 1/8 of the resident block, the
//                      factory streams the dataset file into the .usmp
//                      sidecar (O(batch) heap, or reuses a matching emitted
//                      sidecar via the staleness guard) and the workload
//                      then runs over chunk-granular mapped windows (bounded
//                      address space). Expected to finish:
//                      SAMPLES RESULT=OK.
//   --mode=resident -> no budget, so the classic flat block: n * S * m
//                      doubles must fit the cap. Expected to exhaust it:
//                      SAMPLES RESULT=OOM.
//
// The RESULT= marker is machine-readable on purpose: CI greps for it instead
// of inspecting bare exit codes, so an unrelated crash cannot masquerade as
// the expected out-of-memory outcome (same scheme as bench_moments_smoke).
// Both modes print a sample fingerprint and run the same sampled
// nearest-pseudo-center assignment; on an uncapped run fingerprint,
// objective, and labels must agree (the backends are bit-identical by the
// SampleView contract).
//
// Flags:
//   --dataset=PATH   binary dataset file                      (required)
//   --mode=mapped|resident                                    (default mapped)
//   --sidecar=PATH   the dataset's annotated .usmp sidecar, used when its
//                    S and seed match (default: the factory's param-encoded
//                    path next to the dataset)
//   --samples_per_object=S  realizations per object           (default 64)
//   --sample_seed=S  master draw seed            (default dataset_gen's
//                    0x5eedbeef, so --emit-samples sidecars are reusable)
//   --k=K            pseudo-centers for the assignment sweep  (default 8)
//   --json_out=PATH  bench JSON artifact ("" = none)          (default "")
//   --threads=N --memory_budget_mb=M                          engine knobs
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "io/dataset_reader.h"
#include "io/mmap_file.h"
#include "io/sample_file.h"
#include "uncertain/sample_store.h"

namespace {

using namespace uclust;  // NOLINT: bench brevity

/// FNV-1a over every sample byte, row by row — stable across backends,
/// chunk sizes, and thread counts (the bytes themselves are the contract).
uint64_t SampleFingerprint(const uncertain::SampleView& view) {
  uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < view.size(); ++i) {
    for (const double v : view.ObjectSamples(i)) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int b = 0; b < 64; b += 8) {
        h ^= (bits >> b) & 0xff;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

int Run(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::string path = args.GetString("dataset", "");
  if (path.empty()) {
    std::fprintf(stderr, "samples smoke: --dataset=PATH is required\n");
    return 1;
  }
  const std::string mode = args.GetString("mode", "mapped");
  const int k = static_cast<int>(args.GetInt("k", 8));
  const int samples_per_object =
      static_cast<int>(args.GetInt("samples_per_object", 64));
  const uint64_t sample_seed =
      static_cast<uint64_t>(args.GetInt("sample_seed", 0x5eedbeefLL));
  const std::string sidecar = args.GetString("sidecar", "");

  common::Stopwatch sw;
  auto read = io::ReadUncertainDataset(path);
  if (!read.ok()) {
    std::fprintf(stderr, "samples smoke: %s\n",
                 read.status().ToString().c_str());
    std::printf("SAMPLES RESULT=FAIL\n");
    return 1;
  }
  data::UncertainDataset ds = std::move(read).ValueOrDie();
  if (!sidecar.empty()) ds.set_samples_sidecar_path(sidecar);
  const engine::Engine eng = bench::SmokeModeEngine(
      args, mode,
      ds.size() * static_cast<std::size_t>(samples_per_object) * ds.dims() *
          sizeof(double),
      "samples smoke");
  std::printf("[samples smoke] mode=%s dataset=%s S=%d seed=%llx "
              "memory_budget_bytes=%zu\n",
              mode.c_str(), path.c_str(), samples_per_object,
              static_cast<unsigned long long>(sample_seed),
              eng.memory_budget_bytes());
  std::printf("[samples smoke] dataset n=%zu m=%zu loaded in %.1fms, "
              "rss=%ld KB\n",
              ds.size(), ds.dims(), sw.ElapsedMs(), bench::PeakRssKb());
  if (k < 1 || ds.size() < static_cast<std::size_t>(k)) {
    std::fprintf(stderr, "samples smoke: n=%zu smaller than k=%d\n",
                 ds.size(), k);
    std::printf("SAMPLES RESULT=FAIL\n");
    return 1;
  }

  sw.Reset();
  auto opened = io::MakeSampleStore(ds, samples_per_object, sample_seed, eng);
  if (!opened.ok()) {
    std::fprintf(stderr, "samples smoke: %s\n",
                 opened.status().ToString().c_str());
    std::printf("SAMPLES RESULT=FAIL\n");
    return 1;
  }
  const uncertain::SampleStorePtr store = std::move(opened).ValueOrDie();
  const uncertain::SampleView view = store->view();
  std::printf("[samples smoke] backend=%s built in %.1fms, "
              "sample_bytes_resident=%zu, rss=%ld KB\n",
              uncertain::SampleBackendName(store->backend()).c_str(),
              sw.ElapsedMs(), store->sample_bytes_resident(),
              bench::PeakRssKb());
  std::printf("[samples smoke] fingerprint=%016llx\n",
              static_cast<unsigned long long>(SampleFingerprint(view)));

  // The workload: one sampled nearest-pseudo-center assignment sweep — the
  // UK-medoids assignment-step shape (every object evaluates the Monte-
  // Carlo expected squared distance to each of k fixed centers), streaming
  // the entire sample block through the chunk windows once more.
  sw.Reset();
  const std::size_t m = view.dims();
  std::vector<double> centers(static_cast<std::size_t>(k) * m, 0.0);
  for (int c = 0; c < k; ++c) {
    // Center c = the sample-mean of an evenly spaced anchor object; a pure
    // function of the sample bytes, so modes must agree on it too.
    const std::size_t anchor = (ds.size() / static_cast<std::size_t>(k)) *
                               static_cast<std::size_t>(c);
    const std::span<const double> rows = view.ObjectSamples(anchor);
    for (int s = 0; s < view.samples_per_object(); ++s) {
      for (std::size_t j = 0; j < m; ++j) {
        centers[static_cast<std::size_t>(c) * m + j] +=
            rows[static_cast<std::size_t>(s) * m + j];
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      centers[static_cast<std::size_t>(c) * m + j] /=
          view.samples_per_object();
    }
  }
  std::vector<int> labels(ds.size(), 0);
  double objective = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    double best = 0.0;
    int arg = -1;
    for (int c = 0; c < k; ++c) {
      const double d = view.ExpectedSquaredDistanceToPoint(
          i, std::span<const double>(centers.data() +
                                         static_cast<std::size_t>(c) * m,
                                     m));
      if (arg < 0 || d < best) {
        best = d;
        arg = c;
      }
    }
    labels[i] = arg;
    objective += best;
  }
  const uint64_t result_fp = bench::ResultFingerprint(labels, objective);
  std::printf("[samples smoke] assignment k=%d: objective=%.4f in %.1fms, "
              "result_fingerprint=%016llx, rss=%ld KB\n",
              k, objective, sw.ElapsedMs(),
              static_cast<unsigned long long>(result_fp),
              bench::PeakRssKb());

  if (const auto* mapped =
          dynamic_cast<const io::MappedSampleStore*>(store.get())) {
    // Diagnose whether the windows actually came from mmap or from the
    // graceful heap-read fallback — same values either way, different
    // paging behavior.
    std::printf("[samples smoke] mmap_windows=%s chunk_rows=%zu sidecar=%s\n",
                mapped->used_mmap() ? "yes" : "no", mapped->chunk_rows(),
                mapped->sidecar_path().c_str());
  }

  const std::string json_out = args.GetString("json_out", "");
  if (!json_out.empty()) {
    common::JsonWriter json;
    json.BeginObject();
    json.KV("bench", "samples_smoke");
    json.Key("config");
    json.BeginObject();
    json.KV("dataset", path);
    json.KV("mode", mode);
    json.KV("n", ds.size());
    json.KV("m", ds.dims());
    json.KV("samples_per_object", samples_per_object);
    json.KV("sample_seed", static_cast<int64_t>(sample_seed));
    json.KV("k", k);
    json.KV("hardware_threads",
            static_cast<int64_t>(bench::HardwareThreads()));
    json.EndObject();
    json.KV("backend",
            uncertain::SampleBackendName(store->backend()));
    json.KV("sample_bytes_resident", store->sample_bytes_resident());
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(SampleFingerprint(view)));
    json.KV("sample_fingerprint", fp);
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(result_fp));
    json.KV("result_fingerprint", fp);
    json.KVExact("objective", objective);
    json.KV("peak_rss_kb", static_cast<int64_t>(bench::PeakRssKb()));
    json.EndObject();
    if (json.WriteFile(json_out)) {
      std::printf("[wrote %s]\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
      std::printf("SAMPLES RESULT=FAIL\n");
      return 1;
    }
  }

  std::printf("SAMPLES RESULT=OK mode=%s backend=%s n=%zu S=%d\n",
              mode.c_str(),
              uncertain::SampleBackendName(store->backend()).c_str(),
              ds.size(), samples_per_object);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::bad_alloc&) {
    // Out of memory (e.g. under a CI `ulimit -v` cap): report it in the
    // machine-readable channel and exit non-zero.
    std::printf("SAMPLES RESULT=OOM\n");
    std::fflush(stdout);
    return 3;
  }
}
