// dataset_gen: writes a synthetic uncertain dataset straight to the binary
// dataset format (see src/io/binary_format.h) in one bounded-memory pass —
// every object is generated from its own rng sub-stream and serialized
// immediately, so arbitrarily large n fits in O(classes * m) working memory.
//
// The generator core lives in src/data/synthetic_gen.h (the paper's
// Section 5.1 protocol: labeled Gaussian-mixture centers in the unit cube,
// per-dimension pdfs with randomly drawn scales); this tool is a thin flag
// wrapper around it. Equal flags — in particular equal --seed — produce
// byte-identical output files (tests/test_dataset_gen.cc pins this through
// the shared core).
//
// Flags:
//   --out=PATH        output file                      (required)
//   --n=N             objects                          (default 10000)
//   --m=M             dimensions                       (default 8)
//   --classes=C       mixture components / classes     (default 4)
//   --family=F        uniform|normal|exponential|discrete|mix
//                                                      (default normal)
//   --min_scale_frac=X  min pdf scale, fraction of the unit range
//                                                      (default 0.02)
//   --max_scale_frac=X  max pdf scale                  (default 0.10)
//   --sigma_min=X     min per-dim class stddev         (default 0.04)
//   --sigma_max=X     max per-dim class stddev         (default 0.09)
//   --min_separation=X  min pairwise center distance   (default 0.25)
//   --name=S          dataset name stored in the file  (default "synthetic")
//   --seed=S          master seed                      (default 1)
//   --emit-moments=PATH.umom  also build the moment sidecar for the written
//                     dataset in a second bounded-memory pass, so bench runs
//                     on the Mapped moment backend can reuse it instead of
//                     re-ingesting (see src/io/moment_file.h)
//   --emit-samples=PATH.usmp  also build the Monte-Carlo sample sidecar
//                     (S realizations per object, drawn through the
//                     canonical uncertain::DrawObjectSamples sub-streams) in
//                     a bounded-memory pass, so Mapped-sample-backend runs
//                     reuse it instead of spilling (see src/io/sample_file.h)
//   --samples_per_object=S    realizations per object      (default 32)
//   --sample_seed=S   master draw seed for --emit-samples
//                                                    (default 0x5eedbeef)
//                     Reuse is keyed on (samples_per_object, seed), and each
//                     sampled algorithm has its own default sample_seed:
//                     UK-medoids 0x5eedbeef (this flag's default), FDBSCAN
//                     0x5eedf00d, FOPTICS 0x5eedfade, basic UK-means
//                     0x5eedcafe. Emit one sidecar per target seed (or run
//                     the clusterer with a matching --sample_seed); a
//                     mismatched sidecar is never reused — the run falls
//                     back to its own param-encoded sibling file.
//
// Engine knobs (--threads, --memory_budget_mb, ...) are parsed strictly
// through the canonical common::ParseEngineFlags table and drive the sidecar
// passes: the sidecars are chunked by io::SidecarChunkRequirement from the
// budget and thread count (no budget = the format default), exactly as the
// store factories size them, so a run under the same --memory_budget_mb and
// --threads reuses an emitted sidecar instead of rebuilding it; --threads
// also parallelizes the drawing.
//
// Equal flags produce byte-identical sidecars too: the sample bytes for
// object i are a pure function of (pdf records, sample seed, i, S), never
// of thread count or batch boundaries (tests/test_dataset_gen.cc).
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "data/synthetic_gen.h"
#include "engine/engine.h"
#include "io/chunked_sidecar.h"
#include "io/ingest.h"
#include "io/moment_format.h"
#include "io/sample_file.h"
#include "io/sample_format.h"

namespace {

using namespace uclust;  // NOLINT: tool brevity

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::string out_path = args.GetString("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "dataset_gen: --out=PATH is required\n");
    return 1;
  }
  data::SyntheticGenParams params;
  params.n = static_cast<std::size_t>(args.GetInt("n", 10000));
  params.m = static_cast<std::size_t>(args.GetInt("m", 8));
  params.classes = static_cast<int>(args.GetInt("classes", 4));
  params.min_scale_frac = args.GetDouble("min_scale_frac", 0.02);
  params.max_scale_frac = args.GetDouble("max_scale_frac", 0.10);
  params.sigma_min = args.GetDouble("sigma_min", 0.04);
  params.sigma_max = args.GetDouble("sigma_max", 0.09);
  params.min_separation = args.GetDouble("min_separation", 0.25);
  params.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string name = args.GetString("name", "synthetic");
  if (!data::ParseGenFamily(args.GetString("family", "normal"),
                            &params.family)) {
    std::fprintf(stderr, "dataset_gen: unknown --family (want uniform, "
                         "normal, exponential, discrete, or mix)\n");
    return 1;
  }
  engine::EngineConfig engine_cfg;
  common::Status st = common::ParseEngineFlags(args, &engine_cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "dataset_gen: %s\n", st.ToString().c_str());
    return 1;
  }
  const engine::Engine eng(engine_cfg);
  // Chunk rows of a sidecar of `layout` whose rows have `info`'s shape.
  const auto chunk_rows = [&eng](const io::SidecarLayout& layout,
                                 const io::SidecarInfo& info) {
    return io::SidecarChunkRequirement(layout, eng.memory_budget_bytes(),
                                       eng.num_threads(),
                                       io::SidecarRowBytes(layout, info));
  };

  st = data::ValidateSyntheticGenParams(params);
  if (!st.ok()) {
    std::fprintf(stderr, "dataset_gen: invalid shape/scale parameters\n");
    return 1;
  }

  st = data::WriteSyntheticDataset(params, out_path, name);
  if (!st.ok()) {
    std::fprintf(stderr, "dataset_gen: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "[dataset_gen] wrote n=%zu m=%zu classes=%d family=%s seed=%llu -> %s\n",
      params.n, params.m, params.classes, data::GenFamilyName(params.family),
      static_cast<unsigned long long>(params.seed), out_path.c_str());

  // Optional second pass: precompute the moment sidecar once so Mapped-
  // backend bench runs skip ingestion entirely (they reuse the sidecar via
  // its n/m/source-size staleness guard).
  const std::string moments_path = args.GetString("emit-moments", "");
  if (!moments_path.empty()) {
    io::SidecarInfo info;
    info.m = params.m;
    st = io::BuildMomentSidecar(out_path, moments_path,
                                chunk_rows(io::kMomentLayout, info));
    if (!st.ok()) {
      std::fprintf(stderr, "dataset_gen: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("[dataset_gen] wrote moment sidecar -> %s\n",
                moments_path.c_str());
  }

  // Optional third pass: precompute the .usmp sample sidecar so sampled
  // clusterers on the Mapped sample backend reuse it (matched via the
  // n/m/S/seed/source staleness guard) instead of re-drawing into a spill.
  const std::string samples_path = args.GetString("emit-samples", "");
  if (!samples_path.empty()) {
    const int samples_per_object =
        static_cast<int>(args.GetInt("samples_per_object", 32));
    const uint64_t sample_seed = static_cast<uint64_t>(
        args.GetInt("sample_seed", 0x5eedbeefLL));
    io::SidecarInfo info;
    info.m = params.m;
    info.fields = {static_cast<uint64_t>(samples_per_object), sample_seed};
    st = io::BuildSampleSidecar(out_path, samples_path, samples_per_object,
                                sample_seed, eng,
                                chunk_rows(io::kSampleLayout, info));
    if (!st.ok()) {
      std::fprintf(stderr, "dataset_gen: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf(
        "[dataset_gen] wrote sample sidecar S=%d sample_seed=%llu -> %s\n",
        samples_per_object, static_cast<unsigned long long>(sample_seed),
        samples_path.c_str());
  }
  return 0;
}
