// Determinism regression for the synthetic generator (src/data/synthetic_gen,
// the core behind tools/dataset_gen): equal parameters — in particular an
// equal seed — must produce byte-identical .ubin datasets and byte-identical
// .umom moment / .usmp sample sidecars across runs. The bench/CI scripts lean on this to
// reuse generated fixtures by content, and the CK-means streamed tests lean
// on it to regenerate identical inputs per test case.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "data/synthetic_gen.h"
#include "io/dataset_reader.h"
#include "engine/engine.h"
#include "io/ingest.h"
#include "io/moment_format.h"
#include "io/sample_file.h"
#include "io/sample_format.h"
#include "uncertain/moment_store.h"

namespace uclust {
namespace {

std::string TempPath(const std::string& file) {
  return ::testing::TempDir() + file;
}

std::vector<char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

data::SyntheticGenParams SmallParams(uint64_t seed) {
  data::SyntheticGenParams p;
  p.n = 300;
  p.m = 5;
  p.classes = 3;
  p.family = data::GenFamily::kMix;  // exercises all four pdf families
  p.seed = seed;
  return p;
}

TEST(DatasetGenDeterminism, SameSeedProducesByteIdenticalDatasets) {
  const std::string path_a = TempPath("gen_seed_a.ubin");
  const std::string path_b = TempPath("gen_seed_b.ubin");
  ASSERT_TRUE(
      data::WriteSyntheticDataset(SmallParams(42), path_a, "gen").ok());
  ASSERT_TRUE(
      data::WriteSyntheticDataset(SmallParams(42), path_b, "gen").ok());

  const std::vector<char> bytes_a = ReadAllBytes(path_a);
  const std::vector<char> bytes_b = ReadAllBytes(path_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == bytes_b)
      << "same-seed runs wrote different dataset bytes";

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(DatasetGenDeterminism, DifferentSeedProducesDifferentDatasets) {
  const std::string path_a = TempPath("gen_seed_42.ubin");
  const std::string path_b = TempPath("gen_seed_43.ubin");
  ASSERT_TRUE(
      data::WriteSyntheticDataset(SmallParams(42), path_a, "gen").ok());
  ASSERT_TRUE(
      data::WriteSyntheticDataset(SmallParams(43), path_b, "gen").ok());
  EXPECT_FALSE(ReadAllBytes(path_a) == ReadAllBytes(path_b))
      << "--seed has no effect on the generated records";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(DatasetGenDeterminism, SameSeedProducesByteIdenticalMomentSidecars) {
  const std::string path_a = TempPath("gen_mom_a.ubin");
  const std::string path_b = TempPath("gen_mom_b.ubin");
  const std::string umom_a = TempPath("gen_mom_a.umom");
  const std::string umom_b = TempPath("gen_mom_b.umom");
  ASSERT_TRUE(
      data::WriteSyntheticDataset(SmallParams(7), path_a, "gen").ok());
  ASSERT_TRUE(
      data::WriteSyntheticDataset(SmallParams(7), path_b, "gen").ok());

  // The sidecar header records the source file's mtime for its staleness
  // guard; pin both sources to one timestamp so the only bytes that could
  // differ are the ones derived from the generated content.
  const auto stamp = std::filesystem::last_write_time(path_a);
  std::filesystem::last_write_time(path_b, stamp);

  ASSERT_TRUE(io::BuildMomentSidecar(path_a, umom_a).ok());
  ASSERT_TRUE(io::BuildMomentSidecar(path_b, umom_b).ok());
  const std::vector<char> bytes_a = ReadAllBytes(umom_a);
  const std::vector<char> bytes_b = ReadAllBytes(umom_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == bytes_b)
      << "same-seed runs wrote different sidecar bytes";

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(umom_a.c_str());
  std::remove(umom_b.c_str());
}

TEST(DatasetGenDeterminism, SameSeedProducesByteIdenticalSampleSidecars) {
  const std::string path_a = TempPath("gen_smp_a.ubin");
  const std::string path_b = TempPath("gen_smp_b.ubin");
  const std::string usmp_a = TempPath("gen_smp_a.usmp");
  const std::string usmp_b = TempPath("gen_smp_b.usmp");
  ASSERT_TRUE(
      data::WriteSyntheticDataset(SmallParams(9), path_a, "gen").ok());
  ASSERT_TRUE(
      data::WriteSyntheticDataset(SmallParams(9), path_b, "gen").ok());

  // Like the moment sidecar, the .usmp header records the source mtime for
  // its staleness guard; pin both sources to one timestamp so only
  // content-derived bytes can differ.
  const auto stamp = std::filesystem::last_write_time(path_a);
  std::filesystem::last_write_time(path_b, stamp);

  ASSERT_TRUE(io::BuildSampleSidecar(path_a, usmp_a, /*samples_per_object=*/8,
                                     /*seed=*/0x5eed)
                  .ok());
  ASSERT_TRUE(io::BuildSampleSidecar(path_b, usmp_b, /*samples_per_object=*/8,
                                     /*seed=*/0x5eed)
                  .ok());
  const std::vector<char> bytes_a = ReadAllBytes(usmp_a);
  const std::vector<char> bytes_b = ReadAllBytes(usmp_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == bytes_b)
      << "same-seed runs wrote different sample sidecar bytes";

  // A different draw seed must change the sample bytes (and the header's
  // reuse-guard seed field).
  const std::string usmp_c = TempPath("gen_smp_c.usmp");
  ASSERT_TRUE(io::BuildSampleSidecar(path_a, usmp_c, /*samples_per_object=*/8,
                                     /*seed=*/0x5eee)
                  .ok());
  EXPECT_FALSE(ReadAllBytes(usmp_c) == bytes_a)
      << "--sample_seed has no effect on the drawn realizations";

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(usmp_a.c_str());
  std::remove(usmp_b.c_str());
  std::remove(usmp_c.c_str());
}

TEST(DatasetGenDeterminism, GeneratedFileRoundTripsThroughReader) {
  const std::string path = TempPath("gen_roundtrip.ubin");
  const data::SyntheticGenParams p = SmallParams(11);
  ASSERT_TRUE(data::WriteSyntheticDataset(p, path, "roundtrip").ok());

  io::BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.size(), p.n);
  EXPECT_EQ(reader.dims(), p.m);
  EXPECT_EQ(reader.name(), "roundtrip");

  // Labels must match what the generator core reports for each object.
  std::vector<int> labels;
  ASSERT_TRUE(reader.ReadLabels(&labels).ok());
  ASSERT_EQ(labels.size(), p.n);
  const data::SyntheticGenerator gen(p);
  for (std::size_t i = 0; i < p.n; ++i) {
    int expect = -1;
    (void)gen.MakeObject(i, &expect);
    ASSERT_EQ(labels[i], expect) << "label mismatch at object " << i;
  }
  std::remove(path.c_str());
}

// Device, inode and mtime of `path`: a rebuilt sidecar is renamed into
// place from a temp sibling, so it never keeps all three.
struct FileIdentity {
  dev_t dev = 0;
  ino_t ino = 0;
  int64_t mtime_ns = 0;
  bool operator==(const FileIdentity&) const = default;
};

FileIdentity Identify(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(0, ::stat(path.c_str(), &st)) << path;
  return {st.st_dev, st.st_ino,
          static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec};
}

// The tool sizes --emit-moments/--emit-samples chunks from its
// --memory_budget_mb and --threads exactly as the store factories do, so a
// run under the same budget and thread count reuses both sidecars.
TEST(DatasetGenTool, EmittedSidecarsAreReusedUnderTheSameBudget) {
  const std::string ubin = TempPath("gen_tool.ubin");
  const std::string umom = ubin + ".umom";
  constexpr int kSamples = 32;
  constexpr uint64_t kSampleSeed = 0x5eedbeef;  // the tool's default
  const std::string usmp =
      io::DefaultSampleSidecarPath(ubin, kSamples, kSampleSeed);
  // 6000 x 8: 1.2 MB of moment columns and 12 MB of samples, both above
  // the 1 MiB budget.
  const std::string cmd =
      std::string(UCLUST_DATASET_GEN) + " --out=" + ubin +
      " --n=6000 --m=8 --classes=4 --seed=3 --memory_budget_mb=1"
      " --threads=2 --emit-moments=" + umom + " --emit-samples=" + usmp +
      " --samples_per_object=" + std::to_string(kSamples) + " > /dev/null";
  ASSERT_EQ(0, std::system(cmd.c_str())) << cmd;
  const FileIdentity moments_emitted = Identify(umom);
  const FileIdentity samples_emitted = Identify(usmp);

  engine::EngineConfig config;
  config.memory_budget_bytes = std::size_t{1} << 20;
  config.num_threads = 2;
  const engine::Engine eng(config);

  {
    auto moments = io::StreamMomentStoreFromFile(ubin, eng);
    ASSERT_TRUE(moments.ok()) << moments.status().ToString();
    EXPECT_EQ(uncertain::MomentBackend::kMapped,
              moments.ValueOrDie()->backend());
    // Budget-sized chunks, not the format default.
    EXPECT_LT(moments.ValueOrDie()->view().chunk_rows(),
              io::kDefaultMomentChunkRows);

    auto ds = io::ReadUncertainDataset(ubin);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    auto samples =
        io::MakeSampleStore(ds.ValueOrDie(), kSamples, kSampleSeed, eng);
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    EXPECT_EQ(usmp, samples.ValueOrDie()->sidecar_path());
    EXPECT_LT(samples.ValueOrDie()->view().chunk_rows(),
              io::kDefaultSampleChunkRows);
  }
  EXPECT_EQ(moments_emitted, Identify(umom)) << "the .umom was rebuilt";
  EXPECT_EQ(samples_emitted, Identify(usmp)) << "the .usmp was rebuilt";

  std::remove(umom.c_str());
  std::remove(usmp.c_str());
  std::remove(ubin.c_str());
}

}  // namespace
}  // namespace uclust
