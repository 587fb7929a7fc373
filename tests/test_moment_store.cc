// Tests for the MomentStore abstraction: the Resident and Mapped backends
// serve bit-identical statistics (element-wise and through whole clustering
// runs at several thread counts), chunk boundaries are exact for any n (divisible by chunk_rows or not), sidecar reuse honors the
// staleness guard, and a sidecar built batch by batch from a .ubin equals
// the resident columns for any batch partition. Header validation lives in
// tests/test_chunked_sidecar.cc, run once per sidecar layout.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/ckmeans.h"
#include "clustering/mmvar.h"
#include "clustering/ucpc.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "io/dataset_writer.h"
#include "io/ingest.h"
#include "io/mmap_file.h"
#include "io/moment_file.h"
#include "io/moment_format.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/discrete_pdf.h"
#include "uncertain/exponential_pdf.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/uniform_pdf.h"

namespace uclust {
namespace {

using uncertain::MomentBackend;
using uncertain::MomentMatrix;
using uncertain::MomentStorePtr;
using uncertain::MomentView;
using uncertain::PdfPtr;
using uncertain::UncertainObject;

std::string TempPath(const std::string& file) {
  return ::testing::TempDir() + file;
}

// Objects cycling through every serializable pdf family (mirrors
// tests/test_io.cc so the sidecar sees irregular parameters).
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
                  .Open(path, objects[0].dims(), "moment-store-test", 3,
                        /*with_labels=*/true)
                  .ok());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_TRUE(writer.Append(objects[i], static_cast<int>(i % 3)).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

// Bit-exact element-wise comparison of two views.
void ExpectViewsBitIdentical(const MomentView& a, const MomentView& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dims(), b.dims());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(a.mean(i).data(), b.mean(i).data(),
                             a.dims() * sizeof(double)))
        << "mean row " << i;
    ASSERT_EQ(0, std::memcmp(a.second_moment(i).data(),
                             b.second_moment(i).data(),
                             a.dims() * sizeof(double)))
        << "mu2 row " << i;
    ASSERT_EQ(0, std::memcmp(a.variance(i).data(), b.variance(i).data(),
                             a.dims() * sizeof(double)))
        << "var row " << i;
    ASSERT_EQ(a.total_variance(i), b.total_variance(i)) << "total var " << i;
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

// A budget no test dataset's columns fit: the factory maps, and its chunk
// requirement is the 64-row floor.
const engine::Engine& TinyBudget() {
  static const engine::Engine eng = BudgetEngine(1);
  return eng;
}

// Opens `path` through the factory, whose budget picks the backend.
MomentStorePtr OpenStore(const std::string& path,
                         const engine::Engine& eng = engine::Engine::Serial(),
                         const std::string& sidecar = "") {
  auto store = io::StreamMomentStoreFromFile(path, eng, sidecar);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).ValueOrDie();
}

TEST(MomentStoreTest, ChunkBoundarySweepIsBitIdentical) {
  // n deliberately not divisible by any chunk size; sweep chunk shapes from
  // "more chunks than the per-thread window LRU holds" (chunk_rows=1 ->
  // 97 chunks > kSidecarWindowSlots, forcing eviction + refault) to "one
  // chunk covering everything".
  const auto objects = MakeTestObjects(97, 3, /*seed=*/7);
  const std::string path = WriteTestFile("chunksweep.ubin", objects);
  const MomentMatrix reference = MomentMatrix::FromObjects(objects);

  for (const std::size_t chunk_rows :
       {std::size_t{1}, std::size_t{8}, std::size_t{32}, std::size_t{128}}) {
    const std::string sidecar =
        TempPath("chunksweep" + std::to_string(chunk_rows) + ".umom");
    // The store itself, not the factory: a 128-row chunk is above every
    // budget requirement for 97 rows.
    ASSERT_TRUE(io::BuildMomentSidecar(path, sidecar, chunk_rows).ok());
    auto opened = io::MappedMomentStore::Open(sidecar);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const MomentStorePtr store = std::move(opened).ValueOrDie();
    ASSERT_EQ(MomentBackend::kMapped, store->backend());
    EXPECT_TRUE(store->view().chunked());
    EXPECT_EQ(chunk_rows, store->view().chunk_rows());
    ExpectViewsBitIdentical(reference.view(), store->view());
    // Sequential second pass: re-faulting evicted chunks must reproduce the
    // same bytes.
    ExpectViewsBitIdentical(reference.view(), store->view());
    std::remove(sidecar.c_str());
  }
  std::remove(path.c_str());
}

TEST(MomentStoreTest, FastAlgorithmsBitIdenticalAcrossBackendsAndThreads) {
  const auto objects = MakeTestObjects(150, 4, /*seed=*/13);
  const std::string path = WriteTestFile("fastgroup.ubin", objects);
  const std::string sidecar = TempPath("fastgroup.umom");
  constexpr int kClusters = 5;
  constexpr uint64_t kSeed = 99;

  // The engine contract is bit-identity at FIXED block_size for any thread
  // count, so the whole sweep pins block_size and varies only num_threads.
  engine::EngineConfig one;
  one.num_threads = 1;
  one.block_size = 16;
  engine::EngineConfig two = one;
  two.num_threads = 2;
  engine::EngineConfig eight = one;
  eight.num_threads = 8;
  const engine::Engine engines[] = {engine::Engine(one), engine::Engine(two),
                                    engine::Engine(eight)};

  // Reference run: resident backend, single thread.
  const MomentStorePtr resident = OpenStore(path);
  ASSERT_EQ(MomentBackend::kResident, resident->backend());
  const auto ref_ukm = clustering::CkMeans::RunOnMoments(
      resident->view(), kClusters, kSeed, clustering::CkMeans::Params(),
      engines[0]);
  const auto ref_mmv = clustering::Mmvar::RunOnMoments(
      resident->view(), kClusters, kSeed, clustering::Mmvar::Params(),
      engines[0]);
  const auto ref_ucpc = clustering::Ucpc::RunOnMoments(
      resident->view(), kClusters, kSeed, clustering::Ucpc::Params(),
      engines[0]);

  // Small chunks so every run crosses many chunk boundaries: pre-built, then
  // reused by the factory, whose tiny budget requires 64-row chunks.
  ASSERT_TRUE(io::BuildMomentSidecar(path, sidecar, /*chunk_rows=*/16).ok());
  const MomentStorePtr mapped = OpenStore(path, TinyBudget(), sidecar);
  ASSERT_EQ(MomentBackend::kMapped, mapped->backend());
  ASSERT_EQ(16u, mapped->view().chunk_rows());

  for (const engine::Engine& eng : engines) {
    for (const auto* store : {&resident, &mapped}) {
      const MomentView view = (*store)->view();
      const auto ukm = clustering::CkMeans::RunOnMoments(
          view, kClusters, kSeed, clustering::CkMeans::Params(), eng);
      EXPECT_EQ(ref_ukm.labels, ukm.labels);
      EXPECT_EQ(ref_ukm.objective, ukm.objective);
      EXPECT_EQ(ref_ukm.iterations, ukm.iterations);
      EXPECT_EQ(ref_ukm.center_distance_evals, ukm.center_distance_evals);
      const auto mmv = clustering::Mmvar::RunOnMoments(
          view, kClusters, kSeed, clustering::Mmvar::Params(), eng);
      EXPECT_EQ(ref_mmv.labels, mmv.labels);
      EXPECT_EQ(ref_mmv.objective, mmv.objective);
      const auto ucpc = clustering::Ucpc::RunOnMoments(
          view, kClusters, kSeed, clustering::Ucpc::Params(), eng);
      EXPECT_EQ(ref_ucpc.labels, ucpc.labels);
      EXPECT_EQ(ref_ucpc.objective, ucpc.objective);
    }
  }
  EXPECT_GT(mapped->moment_bytes_resident(), 0u);
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(MomentStoreTest, SidecarBuildMatchesResidentForAnyBatchPartition) {
  const auto objects = MakeTestObjects(53, 3, /*seed=*/31);
  const std::string path = WriteTestFile("spill.ubin", objects);
  const MomentMatrix reference = MomentMatrix::FromObjects(objects);

  // Batches smaller than, equal to, and larger than n, none of them
  // aligned to the 8-row chunks: the writer regroups rows across batches.
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{5}, std::size_t{53}, std::size_t{60}}) {
    const std::string sidecar = TempPath("spill.umom");
    ASSERT_TRUE(io::BuildMomentSidecar(path, sidecar, /*chunk_rows=*/8, batch)
                    .ok());
    auto store = io::MappedMomentStore::Open(sidecar);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ExpectViewsBitIdentical(reference.view(), store.ValueOrDie()->view());
    // The windows must actually have come from mmap — a silent 100%
    // heap-read fallback would invalidate the out-of-core design while
    // passing every value check.
    EXPECT_TRUE(store.ValueOrDie()->used_mmap());
    std::remove(sidecar.c_str());
  }
  std::remove(path.c_str());
}

TEST(MomentStoreTest, WriteMomentFileRoundTripsAnyView) {
  const auto objects = MakeTestObjects(41, 2, /*seed=*/3);
  const MomentMatrix reference = MomentMatrix::FromObjects(objects);
  const std::string sidecar = TempPath("roundtrip.umom");
  ASSERT_TRUE(
      io::WriteMomentFile(reference.view(), sidecar, /*chunk_rows=*/4).ok());
  auto store = io::MappedMomentStore::Open(sidecar);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectViewsBitIdentical(reference.view(), store.ValueOrDie()->view());

  // A chunked view is a valid source too (mapped -> file -> mapped).
  const std::string copy = TempPath("roundtrip2.umom");
  ASSERT_TRUE(io::WriteMomentFile(store.ValueOrDie()->view(), copy,
                                  /*chunk_rows=*/16)
                  .ok());
  auto store2 = io::MappedMomentStore::Open(copy);
  ASSERT_TRUE(store2.ok()) << store2.status().ToString();
  ExpectViewsBitIdentical(reference.view(), store2.ValueOrDie()->view());
  std::remove(copy.c_str());
  std::remove(sidecar.c_str());
}

TEST(MomentStoreTest, AutoBackendSelectionFollowsBudget) {
  const auto objects = MakeTestObjects(60, 3, /*seed=*/17);
  const std::string path = WriteTestFile("budget.ubin", objects);
  const std::size_t resident_bytes = (3 * 60 * 3 + 60) * sizeof(double);

  struct Case {
    std::size_t budget;
    MomentBackend expected;
  };
  const Case cases[] = {
      {0, MomentBackend::kResident},  // unlimited
      {resident_bytes, MomentBackend::kResident},
      {resident_bytes - 1, MomentBackend::kMapped},
      {1, MomentBackend::kMapped},
  };
  for (const Case& c : cases) {
    const MomentStorePtr store =
        OpenStore(path, BudgetEngine(c.budget), TempPath("budget.umom"));
    EXPECT_EQ(c.expected, store->backend()) << "budget " << c.budget;
    if (c.expected == MomentBackend::kMapped) {
      // Chunks are sized so the per-thread window cache fits the budget
      // (floored to the 64-row minimum here).
      EXPECT_EQ(64u, store->view().chunk_rows()) << "budget " << c.budget;
    }
  }
  std::remove(TempPath("budget.umom").c_str());
  std::remove(path.c_str());
}

TEST(MomentStoreTest, SidecarReuseHonorsStalenessGuard) {
  const auto objects = MakeTestObjects(30, 2, /*seed=*/23);
  const std::string path = WriteTestFile("reuse.ubin", objects);
  const std::string sidecar = TempPath("reuse.umom");
  const MomentMatrix reference = MomentMatrix::FromObjects(objects);

  // First open builds the sidecar.
  {
    const MomentStorePtr store = OpenStore(path, TinyBudget(), sidecar);
    ASSERT_EQ(MomentBackend::kMapped, store->backend());
    ExpectViewsBitIdentical(reference.view(), store->view());
  }

  // Poison one payload double in place (same size, header untouched). A
  // reusing open must serve the poisoned byte — proof it did NOT rebuild.
  std::vector<char> bytes = ReadFileBytes(sidecar);
  const double poison = 1234.5;
  std::memcpy(bytes.data() + io::kMomentHeaderBytes, &poison, sizeof(poison));
  WriteFileBytes(sidecar, bytes);
  {
    const MomentStorePtr store = OpenStore(path, TinyBudget(), sidecar);
    EXPECT_EQ(poison, store->view().mean(0)[0]);
  }

  // A deleted sidecar is rebuilt and restores the true value.
  std::remove(sidecar.c_str());
  {
    const MomentStorePtr store = OpenStore(path, TinyBudget(), sidecar);
    ExpectViewsBitIdentical(reference.view(), store->view());
  }

  // A sidecar whose stored source size mismatches the dataset is stale:
  // rewrite the guard field (and poison a payload double) and expect a
  // silent rebuild.
  bytes = ReadFileBytes(sidecar);
  const uint64_t wrong_source = 1;
  std::memcpy(bytes.data() + 40, &wrong_source, sizeof(wrong_source));
  std::memcpy(bytes.data() + io::kMomentHeaderBytes, &poison, sizeof(poison));
  WriteFileBytes(sidecar, bytes);
  {
    const MomentStorePtr store = OpenStore(path, TinyBudget(), sidecar);
    ExpectViewsBitIdentical(reference.view(), store->view());
  }
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(MomentStoreTest, SidecarReuseRespectsChunkRequirement) {
  const auto objects = MakeTestObjects(40, 2, /*seed=*/61);
  const std::string path = WriteTestFile("chunkreq.ubin", objects);
  const std::string sidecar = TempPath("chunkreq.umom");

  // The budget requires 64-row chunks. A sidecar with 8-row chunks is
  // reused (window memory only shrinks).
  ASSERT_TRUE(io::BuildMomentSidecar(path, sidecar, /*chunk_rows=*/8).ok());
  {
    const MomentStorePtr store = OpenStore(path, TinyBudget(), sidecar);
    EXPECT_EQ(8u, store->view().chunk_rows());
  }
  // One with 128-row chunks must be rebuilt: serving them when the budget
  // sized windows for 64 rows would exceed the memory bound.
  ASSERT_TRUE(io::BuildMomentSidecar(path, sidecar, /*chunk_rows=*/128).ok());
  {
    const MomentStorePtr store = OpenStore(path, TinyBudget(), sidecar);
    EXPECT_EQ(64u, store->view().chunk_rows());
    ExpectViewsBitIdentical(MomentMatrix::FromObjects(objects).view(),
                            store->view());
  }
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(MomentStoreTest, SidecarRebuiltWhenDatasetRegeneratedInPlace) {
  // Regenerating a dataset in place with fixed-size records reproduces the
  // exact byte count, and on coarse filesystems the rewrite can land in the
  // same mtime tick (this test deliberately does NOT touch timestamps) —
  // the content-probe part of the guard must catch it and force a rebuild.
  const auto objects_v1 = MakeTestObjects(24, 2, /*seed=*/51);
  const std::string path = WriteTestFile("regen.ubin", objects_v1);
  const std::size_t v1_bytes = ReadFileBytes(path).size();
  const std::string sidecar = TempPath("regen.umom");
  {
    const MomentStorePtr store = OpenStore(path, TinyBudget(), sidecar);
    ExpectViewsBitIdentical(MomentMatrix::FromObjects(objects_v1).view(),
                            store->view());
  }

  // Same n/m/pdf-family cycle, different seed: identical byte size, so the
  // size guard alone would wrongly reuse the v1 sidecar.
  const auto objects_v2 = MakeTestObjects(24, 2, /*seed=*/52);
  const std::string path2 = WriteTestFile("regen.ubin", objects_v2);
  ASSERT_EQ(path, path2);
  ASSERT_EQ(v1_bytes, ReadFileBytes(path).size());

  const MomentStorePtr store = OpenStore(path, TinyBudget(), sidecar);
  ExpectViewsBitIdentical(MomentMatrix::FromObjects(objects_v2).view(),
                          store->view());
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(MomentStoreTest, FailedRebuildPreservesExistingSidecar) {
  const auto objects = MakeTestObjects(25, 2, /*seed=*/71);
  const std::string path = WriteTestFile("failsafe.ubin", objects);
  const std::string sidecar = TempPath("failsafe.umom");
  const MomentMatrix reference = MomentMatrix::FromObjects(objects);
  {
    const MomentStorePtr store = OpenStore(path, TinyBudget(), sidecar);
    ExpectViewsBitIdentical(reference.view(), store->view());
  }

  // Corrupt the dataset so (a) the staleness probe forces a rebuild and
  // (b) that rebuild fails mid-ingestion: the first object's length prefix
  // (at header 64 + name "moment-store-test" 17) claims more bytes than
  // the file holds. The header itself stays valid, so the failure happens
  // after the temp writer opened — exactly the dangerous window.
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t huge_payload = 0xffffffffu;
  std::memcpy(bytes.data() + 64 + 17, &huge_payload, sizeof(huge_payload));
  WriteFileBytes(path, bytes);

  const auto failed =
      io::StreamMomentStoreFromFile(path, TinyBudget(), sidecar);
  EXPECT_FALSE(failed.ok());

  // The previously built sidecar must have survived the failed rebuild
  // intact (the rebuild goes through a temp sibling + rename).
  auto survived = io::MappedMomentStore::Open(sidecar);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  ExpectViewsBitIdentical(reference.view(), survived.ValueOrDie()->view());
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uclust
