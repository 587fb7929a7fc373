// Tests for the SampleStore abstraction: the Resident and Mapped backends
// serve bit-identical sample bytes (element-wise, across chunk shapes, and
// for any builder batch partition), sidecar reuse honors the
// extended staleness guard (source size/mtime/probe PLUS samples-per-object
// and draw seed), a registry-annotated sidecar pin is honored only when its
// header matches the requested (S, seed), temp spills self-delete, and the
// factory's failure policy falls back to the Resident backend. Header
// validation lives in tests/test_chunked_sidecar.cc, run once per layout.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "io/dataset_reader.h"
#include "io/dataset_writer.h"
#include "io/mmap_file.h"
#include "io/sample_file.h"
#include "io/sample_format.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/exponential_pdf.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/sample_store.h"
#include "uncertain/uniform_pdf.h"

namespace uclust {
namespace {

using uncertain::PdfPtr;
using uncertain::ResidentSampleStore;
using uncertain::SampleBackend;
using uncertain::SampleStorePtr;
using uncertain::SampleView;
using uncertain::UncertainObject;

std::string TempPath(const std::string& file) {
  return ::testing::TempDir() + file;
}

// Objects cycling through every serializable pdf family (mirrors
// tests/test_moment_store.cc so the sidecar sees irregular parameters).
std::vector<UncertainObject> MakeTestObjects(std::size_t n, std::size_t m,
                                             uint64_t seed) {
  std::vector<UncertainObject> objects;
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<PdfPtr> dims;
    for (std::size_t j = 0; j < m; ++j) {
      const double w = rng.Uniform(-3.0, 3.0);
      const double scale = rng.Uniform(0.05, 0.4);
      switch ((i + j) % 4) {
        case 0:
          dims.push_back(uncertain::UniformPdf::Centered(w, scale));
          break;
        case 1:
          dims.push_back(uncertain::TruncatedNormalPdf::Make(w, scale));
          break;
        case 2:
          dims.push_back(
              uncertain::TruncatedExponentialPdf::Make(w, 1.0 / scale));
          break;
        default:
          dims.push_back(uncertain::DiracPdf::Make(w));
      }
    }
    objects.emplace_back(std::move(dims));
  }
  return objects;
}

std::string WriteTestFile(const std::string& file,
                          const std::vector<UncertainObject>& objects) {
  const std::string path = TempPath(file);
  io::BinaryDatasetWriter writer;
  EXPECT_TRUE(writer
                  .Open(path, objects[0].dims(), "sample-store-test", 3,
                        /*with_labels=*/true)
                  .ok());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_TRUE(writer.Append(objects[i], static_cast<int>(i % 3)).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

// Loads a file-backed dataset (annotated with its source path, which the
// factory's sidecar reuse guard keys off).
data::UncertainDataset LoadDataset(const std::string& path) {
  auto ds = io::ReadUncertainDataset(path);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).ValueOrDie();
}

// Bit-exact element-wise comparison of two sample views.
void ExpectSamplesBitIdentical(const SampleView& a, const SampleView& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.samples_per_object(), b.samples_per_object());
  ASSERT_EQ(a.dims(), b.dims());
  const std::size_t row =
      static_cast<std::size_t>(a.samples_per_object()) * a.dims();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(a.ObjectSamples(i).data(),
                             b.ObjectSamples(i).data(), row * sizeof(double)))
        << "object row " << i;
  }
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
}

// A serial engine with a `budget`-byte memory budget.
engine::Engine BudgetEngine(std::size_t budget) {
  engine::EngineConfig config;
  config.memory_budget_bytes = budget;
  return engine::Engine(config);
}

// A budget no test dataset's samples fit: the factory maps, and its chunk
// requirement is the 16-row floor.
const engine::Engine& TinyBudget() {
  static const engine::Engine eng = BudgetEngine(1);
  return eng;
}

// Opens `ds`'s samples through the factory, whose budget picks the backend.
SampleStorePtr OpenStore(const data::UncertainDataset& ds,
                         int samples_per_object, uint64_t seed,
                         const engine::Engine& eng = engine::Engine::Serial()) {
  auto store = io::MakeSampleStore(ds, samples_per_object, seed, eng);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).ValueOrDie();
}

TEST(SampleStoreTest, ChunkBoundarySweepIsBitIdentical) {
  // n deliberately not divisible by any chunk size; sweep chunk shapes from
  // "more chunks than the per-thread window LRU holds" (chunk_rows=1 ->
  // 97 chunks > kSidecarWindowSlots, forcing eviction + refault) to "one
  // chunk covering everything".
  const auto objects = MakeTestObjects(97, 3, /*seed=*/7);
  const std::string path = WriteTestFile("smp_chunksweep.ubin", objects);
  const auto ds = LoadDataset(path);
  const ResidentSampleStore reference(ds.objects(), /*samples=*/6, 0x5eed);

  for (const std::size_t chunk_rows :
       {std::size_t{1}, std::size_t{8}, std::size_t{32}, std::size_t{128}}) {
    const std::string sidecar =
        TempPath("smp_chunksweep" + std::to_string(chunk_rows) + ".usmp");
    // The store itself, not the factory: 32- and 128-row chunks are above
    // every budget requirement for 97 rows.
    ASSERT_TRUE(io::BuildSampleSidecar(path, sidecar, 6, 0x5eed,
                                       engine::Engine::Serial(), chunk_rows)
                    .ok());
    auto opened = io::MappedSampleStore::Open(sidecar);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const SampleStorePtr store = std::move(opened).ValueOrDie();
    ASSERT_EQ(SampleBackend::kMapped, store->backend());
    EXPECT_TRUE(store->view().chunked());
    EXPECT_EQ(chunk_rows, store->view().chunk_rows());
    ExpectSamplesBitIdentical(reference.view(), store->view());
    // Sequential second pass: re-faulting evicted chunks must reproduce the
    // same bytes.
    ExpectSamplesBitIdentical(reference.view(), store->view());
    std::remove(sidecar.c_str());
  }
  std::remove(path.c_str());
}

TEST(SampleStoreTest, SpillMatchesResidentForAnyBatchPartition) {
  const auto objects = MakeTestObjects(53, 3, /*seed=*/31);
  const std::string path = WriteTestFile("smp_spill.ubin", objects);
  const ResidentSampleStore reference(objects, /*samples=*/5, 0x5eed);

  engine::EngineConfig threaded;
  threaded.num_threads = 3;
  threaded.block_size = 4;
  const engine::Engine engines[] = {engine::Engine::Serial(),
                                    engine::Engine(threaded)};
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{5}, std::size_t{53}, std::size_t{60}}) {
    for (const engine::Engine& eng : engines) {
      const std::string sidecar = TempPath("smp_spill.usmp");
      ASSERT_TRUE(io::BuildSampleSidecar(path, sidecar, /*samples=*/5, 0x5eed,
                                         eng, /*chunk_rows=*/8, batch)
                      .ok());
      auto store = io::MappedSampleStore::Open(sidecar);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ExpectSamplesBitIdentical(reference.view(), store.ValueOrDie()->view());
      // The windows must actually have come from mmap — a silent 100%
      // heap-read fallback would invalidate the out-of-core design while
      // passing every value check.
      EXPECT_TRUE(store.ValueOrDie()->used_mmap());
      std::remove(sidecar.c_str());
    }
  }
  std::remove(path.c_str());
}

TEST(SampleStoreTest, WriteSampleFileRoundTripsAnyView) {
  const auto objects = MakeTestObjects(41, 2, /*seed=*/3);
  const ResidentSampleStore reference(objects, /*samples=*/4, 0x5eed);
  const std::string sidecar = TempPath("smp_roundtrip.usmp");
  ASSERT_TRUE(io::WriteSampleFile(reference.view(), sidecar, 0x5eed,
                                  /*chunk_rows=*/4)
                  .ok());
  auto store = io::MappedSampleStore::Open(sidecar);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectSamplesBitIdentical(reference.view(), store.ValueOrDie()->view());
  EXPECT_EQ(0x5eedu, store.ValueOrDie()->seed());

  // A chunked view is a valid source too (mapped -> file -> mapped).
  const std::string copy = TempPath("smp_roundtrip2.usmp");
  ASSERT_TRUE(io::WriteSampleFile(store.ValueOrDie()->view(), copy, 0x5eed,
                                  /*chunk_rows=*/16)
                  .ok());
  auto store2 = io::MappedSampleStore::Open(copy);
  ASSERT_TRUE(store2.ok()) << store2.status().ToString();
  ExpectSamplesBitIdentical(reference.view(), store2.ValueOrDie()->view());
  std::remove(copy.c_str());
  std::remove(sidecar.c_str());
}

TEST(SampleStoreTest, AutoBackendSelectionFollowsBudget) {
  const auto objects = MakeTestObjects(60, 3, /*seed=*/17);
  const std::string path = WriteTestFile("smp_budget.ubin", objects);
  const auto ds = LoadDataset(path);
  constexpr int kSamples = 8;
  const std::size_t resident_bytes = 60 * kSamples * 3 * sizeof(double);

  struct Case {
    std::size_t budget;
    SampleBackend expected;
  };
  const Case cases[] = {
      {0, SampleBackend::kResident},  // unlimited
      {resident_bytes, SampleBackend::kResident},
      {resident_bytes - 1, SampleBackend::kMapped},
      {1, SampleBackend::kMapped},
  };
  for (const Case& c : cases) {
    const SampleStorePtr store =
        OpenStore(ds, kSamples, 0x5eed, BudgetEngine(c.budget));
    EXPECT_EQ(c.expected, store->backend()) << "budget " << c.budget;
    if (c.expected == SampleBackend::kMapped) {
      // Chunks are sized so the per-thread window cache fits the budget.
      // The floor is 16 rows — 4x smaller than the moment store's, because
      // a sample row is S times wider.
      EXPECT_EQ(16u, store->view().chunk_rows()) << "budget " << c.budget;
    }
  }
  std::remove(io::DefaultSampleSidecarPath(path, kSamples, 0x5eed).c_str());
  std::remove(path.c_str());
}

TEST(SampleStoreTest, SidecarReuseHonorsStalenessGuard) {
  const auto objects = MakeTestObjects(30, 2, /*seed=*/23);
  const std::string path = WriteTestFile("smp_reuse.ubin", objects);
  const std::string sidecar = io::DefaultSampleSidecarPath(path, 4, 0x5eed);
  const auto ds = LoadDataset(path);
  const ResidentSampleStore reference(ds.objects(), /*samples=*/4, 0x5eed);
  const auto open = [&] { return OpenStore(ds, 4, 0x5eed, TinyBudget()); };

  // First open builds the sidecar.
  ExpectSamplesBitIdentical(reference.view(), open()->view());

  // Poison one payload double in place (same size, header untouched). A
  // reusing open must serve the poisoned byte — proof it did NOT rebuild.
  const double poison = 1234.5;
  const auto poison_payload = [&] {
    std::vector<char> bytes = ReadFileBytes(sidecar);
    std::memcpy(bytes.data() + io::kSampleHeaderBytes, &poison,
                sizeof(poison));
    WriteFileBytes(sidecar, bytes);
  };
  poison_payload();
  EXPECT_EQ(poison, open()->view().ObjectSamples(0)[0]);

  // A deleted sidecar is rebuilt and restores the true value.
  std::remove(sidecar.c_str());
  ExpectSamplesBitIdentical(reference.view(), open()->view());

  // A sidecar whose stored source size mismatches the dataset is stale:
  // rewrite the guard field (offset 56), poison the payload, and expect a
  // silent rebuild.
  {
    std::vector<char> bytes = ReadFileBytes(sidecar);
    const uint64_t wrong_source = 1;
    std::memcpy(bytes.data() + 56, &wrong_source, sizeof(wrong_source));
    std::memcpy(bytes.data() + io::kSampleHeaderBytes, &poison,
                sizeof(poison));
    WriteFileBytes(sidecar, bytes);
  }
  ExpectSamplesBitIdentical(reference.view(), open()->view());

  // The guard extends the moment store's with the DRAW parameters. A
  // sidecar recording a different master seed (offset 48) is not the
  // requested artifact: poison the payload too, and prove the poison does
  // NOT survive — the store rebuilt instead of reusing.
  {
    std::vector<char> bytes = ReadFileBytes(sidecar);
    const uint64_t other_seed = 0x5eee;
    std::memcpy(bytes.data() + 48, &other_seed, sizeof(other_seed));
    std::memcpy(bytes.data() + io::kSampleHeaderBytes, &poison,
                sizeof(poison));
    WriteFileBytes(sidecar, bytes);
  }
  ExpectSamplesBitIdentical(reference.view(), open()->view());

  // Same for samples-per-object (offset 32): the header's size check fails
  // for the declared S, so the file is invalid and silently rebuilt.
  {
    std::vector<char> bytes = ReadFileBytes(sidecar);
    const uint64_t wrong_samples = 5;
    std::memcpy(bytes.data() + 32, &wrong_samples, sizeof(wrong_samples));
    std::memcpy(bytes.data() + io::kSampleHeaderBytes, &poison,
                sizeof(poison));
    WriteFileBytes(sidecar, bytes);
  }
  ExpectSamplesBitIdentical(reference.view(), open()->view());

  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(SampleStoreTest, SidecarReuseRespectsChunkRequirement) {
  const auto objects = MakeTestObjects(40, 2, /*seed=*/61);
  const std::string path = WriteTestFile("smp_chunkreq.ubin", objects);
  const std::string sidecar = io::DefaultSampleSidecarPath(path, 4, 0x5eed);
  const auto ds = LoadDataset(path);
  const auto build = [&](std::size_t chunk_rows) {
    ASSERT_TRUE(io::BuildSampleSidecar(path, sidecar, 4, 0x5eed,
                                       engine::Engine::Serial(), chunk_rows)
                    .ok());
  };

  // The budget requires 16-row chunks. A sidecar with 8-row chunks is
  // reused (window memory only shrinks).
  build(8);
  EXPECT_EQ(8u, OpenStore(ds, 4, 0x5eed, TinyBudget())->view().chunk_rows());
  // One with 32-row chunks must be rebuilt: serving them when the budget
  // sized windows for 16 rows would exceed the memory bound.
  build(32);
  const SampleStorePtr rebuilt = OpenStore(ds, 4, 0x5eed, TinyBudget());
  EXPECT_EQ(16u, rebuilt->view().chunk_rows());
  const ResidentSampleStore reference(ds.objects(), 4, 0x5eed);
  ExpectSamplesBitIdentical(reference.view(), rebuilt->view());
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(SampleStoreTest, SidecarRebuiltWhenDatasetRegeneratedInPlace) {
  // Regenerating a dataset in place with fixed-size records reproduces the
  // exact byte count, and on coarse filesystems the rewrite can land in the
  // same mtime tick (this test deliberately does NOT touch timestamps) —
  // the content-probe part of the guard must catch it and force a rebuild.
  const auto objects_v1 = MakeTestObjects(24, 2, /*seed=*/51);
  const std::string path = WriteTestFile("smp_regen.ubin", objects_v1);
  const std::size_t v1_bytes = ReadFileBytes(path).size();
  const std::string sidecar = io::DefaultSampleSidecarPath(path, 4, 0x5eed);
  {
    const auto ds = LoadDataset(path);
    const SampleStorePtr store = OpenStore(ds, 4, 0x5eed, TinyBudget());
    ExpectSamplesBitIdentical(ResidentSampleStore(objects_v1, 4, 0x5eed).view(),
                              store->view());
  }

  // Same n/m/pdf-family cycle, different seed: identical byte size, so the
  // size guard alone would wrongly reuse the v1 sidecar.
  const auto objects_v2 = MakeTestObjects(24, 2, /*seed=*/52);
  const std::string path2 = WriteTestFile("smp_regen.ubin", objects_v2);
  ASSERT_EQ(path, path2);
  ASSERT_EQ(v1_bytes, ReadFileBytes(path).size());

  const auto ds = LoadDataset(path);
  const SampleStorePtr store = OpenStore(ds, 4, 0x5eed, TinyBudget());
  ExpectSamplesBitIdentical(ResidentSampleStore(objects_v2, 4, 0x5eed).view(),
                            store->view());
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(SampleStoreTest, FailedRebuildPreservesExistingSidecar) {
  const auto objects = MakeTestObjects(25, 2, /*seed=*/71);
  const std::string path = WriteTestFile("smp_failsafe.ubin", objects);
  const std::string sidecar = io::DefaultSampleSidecarPath(path, 4, 0x5eed);
  const ResidentSampleStore reference(objects, 4, 0x5eed);
  const auto ds = LoadDataset(path);  // loaded BEFORE the corruption below
  {
    const SampleStorePtr store = OpenStore(ds, 4, 0x5eed, TinyBudget());
    ExpectSamplesBitIdentical(reference.view(), store->view());
  }

  // Corrupt the dataset so (a) the staleness probe forces a rebuild and
  // (b) that rebuild — which streams from the source file, not from the
  // resident objects — fails mid-stream: the first object's length prefix
  // (at header 64 + name "sample-store-test" 17) claims more bytes than
  // the file holds. The file header itself stays valid, so the failure
  // happens after the temp writer opened — exactly the dangerous window.
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t huge_payload = 0xffffffffu;
  std::memcpy(bytes.data() + 64 + 17, &huge_payload, sizeof(huge_payload));
  WriteFileBytes(path, bytes);
  const auto failed = io::MakeSampleStore(ds, 4, 0x5eed, TinyBudget());
  EXPECT_FALSE(failed.ok());

  // The previously built sidecar must have survived the failed rebuild
  // intact (the rebuild goes through a temp sibling + rename).
  auto survived = io::MappedSampleStore::Open(sidecar);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  ExpectSamplesBitIdentical(reference.view(), survived.ValueOrDie()->view());
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(SampleStoreTest, TempSpillSelfDeletesWithTheStore) {
  // In-memory dataset (no source path, no annotation): the Mapped backend
  // spills into a temp .usmp that is unlinked when the store dies.
  const auto objects = MakeTestObjects(20, 2, /*seed=*/81);
  data::UncertainDataset ds("inmem", objects, {}, 0);
  const ResidentSampleStore reference(objects, 4, 0x5eed);
  std::string spill;
  {
    const SampleStorePtr store = OpenStore(ds, 4, 0x5eed, TinyBudget());
    spill = store->sidecar_path();
    ASSERT_FALSE(spill.empty());
    EXPECT_TRUE(std::filesystem::exists(spill));
    ExpectSamplesBitIdentical(reference.view(), store->view());
  }
  EXPECT_FALSE(std::filesystem::exists(spill))
      << "temp spill leaked: " << spill;
}

TEST(SampleStoreTest, DefaultSidecarIsReusedAcrossFactoryCalls) {
  // A file-backed dataset with no explicit sidecar gets the param-encoded
  // default path next to its source; a second store over the same (S, seed)
  // must reuse it. Poison proves the reuse (and distinguishes it from a
  // silent rebuild).
  const auto objects = MakeTestObjects(30, 2, /*seed=*/91);
  const std::string path = WriteTestFile("smp_default.ubin", objects);
  const auto ds = LoadDataset(path);
  const std::string sidecar = io::DefaultSampleSidecarPath(path, 4, 0x5eed);
  {
    const SampleStorePtr store = OpenStore(ds, 4, 0x5eed, TinyBudget());
    EXPECT_EQ(sidecar, store->sidecar_path());
  }
  ASSERT_TRUE(std::filesystem::exists(sidecar));
  std::vector<char> bytes = ReadFileBytes(sidecar);
  const double poison = 4321.5;
  std::memcpy(bytes.data() + io::kSampleHeaderBytes, &poison, sizeof(poison));
  WriteFileBytes(sidecar, bytes);
  {
    const SampleStorePtr store = OpenStore(ds, 4, 0x5eed, TinyBudget());
    EXPECT_EQ(poison, store->view().ObjectSamples(0)[0]);
  }
  // A different seed encodes a different default path — no churn of the
  // first sidecar.
  EXPECT_NE(sidecar, io::DefaultSampleSidecarPath(path, 4, 0x5eee));
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(SampleStoreTest, AnnotatedSidecarReusedOnlyWhenHeaderMatches) {
  // A registry-annotated sidecar pins one (S, seed) artifact. A matching
  // request must reuse it in place; a mismatched request must leave the
  // pinned bytes untouched and fall through to the param-encoded default
  // path — each sampled algorithm carries a distinct default sample_seed,
  // so honoring the pin unconditionally would rebuild-overwrite the shared
  // file on every alternating job.
  const auto objects = MakeTestObjects(25, 2, /*seed=*/83);
  const std::string path = WriteTestFile("smp_annotated.ubin", objects);
  auto ds = LoadDataset(path);
  const std::string pinned = TempPath("smp_annotated_pin.usmp");
  // Emit the pinned artifact with seed 0x5eed (as dataset_gen would), in
  // chunks the tiny budget's 16-row requirement accepts.
  ASSERT_TRUE(io::BuildSampleSidecar(path, pinned, 4, 0x5eed,
                                     engine::Engine::Serial(),
                                     /*chunk_rows=*/16)
                  .ok());
  ds.set_samples_sidecar_path(pinned);
  const std::vector<char> pinned_bytes = ReadFileBytes(pinned);

  {
    // Matching (S, seed): the pin is honored.
    const SampleStorePtr store = OpenStore(ds, 4, 0x5eed, TinyBudget());
    EXPECT_EQ(pinned, store->sidecar_path());
    EXPECT_EQ(pinned_bytes, ReadFileBytes(pinned));
  }
  {
    // Mismatched seed: the store lands on the default sibling and the
    // pinned file survives bit-for-bit.
    const SampleStorePtr store = OpenStore(ds, 4, 0x5eee, TinyBudget());
    EXPECT_EQ(io::DefaultSampleSidecarPath(path, 4, 0x5eee),
              store->sidecar_path());
    EXPECT_EQ(pinned_bytes, ReadFileBytes(pinned));
  }
  {
    // Mismatched samples-per-object likewise.
    const SampleStorePtr store = OpenStore(ds, 8, 0x5eed, TinyBudget());
    EXPECT_EQ(io::DefaultSampleSidecarPath(path, 8, 0x5eed),
              store->sidecar_path());
    EXPECT_EQ(pinned_bytes, ReadFileBytes(pinned));
  }
  std::remove(io::DefaultSampleSidecarPath(path, 4, 0x5eee).c_str());
  std::remove(io::DefaultSampleSidecarPath(path, 8, 0x5eed).c_str());
  std::remove(pinned.c_str());
  std::remove(path.c_str());
}

TEST(SampleStoreTest, FactoryFailureFallsBackToResident) {
  // The clusterer-facing wrapper has no status channel: a factory failure
  // (here a source annotation that cannot be stat'ed for the staleness
  // guard) must degrade to the (value-identical) Resident backend instead
  // of failing the clustering.
  const auto objects = MakeTestObjects(20, 2, /*seed=*/95);
  data::UncertainDataset ds("inmem", objects, {}, 0);
  ds.set_source_path("/nonexistent-dir/missing.ubin");
  const SampleStorePtr store =
      io::MakeSampleStoreOrResident(ds, 4, 0x5eed, TinyBudget());
  ASSERT_NE(nullptr, store);
  EXPECT_EQ(SampleBackend::kResident, store->backend());
  ExpectSamplesBitIdentical(ResidentSampleStore(objects, 4, 0x5eed).view(),
                            store->view());
}

}  // namespace
}  // namespace uclust
