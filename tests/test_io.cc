// Tests for the binary dataset format (src/io/) and the moment ingestion
// path (io::BinaryDatasetReader::ReadMomentRows and its callers in
// io/ingest.h): write -> read round trips reproduce moments bit-for-bit, the
// record decoder equals the pdf-object path (ReadUncertainDataset +
// MomentMatrix::FromObjects, the oracle) for every pdf family and edge case
// at any batch size, malformed files (endianness, version, magic,
// truncation) are rejected instead of mis-parsed, a seeded mutation fuzz
// holds ReadBatch and ReadMomentRows to the same verdict on hostile input.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_utils.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "io/binary_format.h"
#include "io/dataset_reader.h"
#include "io/dataset_writer.h"
#include "io/ingest.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/discrete_pdf.h"
#include "uncertain/exponential_pdf.h"
#include "uncertain/moments.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/uniform_pdf.h"

namespace uclust {
namespace {

using uncertain::MomentMatrix;
using uncertain::MomentView;
using uncertain::PdfPtr;
using uncertain::UncertainObject;

std::string TempPath(const std::string& file) {
  return ::testing::TempDir() + file;
}

// Objects cycling through every serializable pdf family, with irregular
// parameters (non-uniform discrete weights included).
std::vector<UncertainObject> MakeTestObjects(std::size_t n, std::size_t m,
                                             uint64_t seed) {
  std::vector<UncertainObject> objects;
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<PdfPtr> dims;
    for (std::size_t j = 0; j < m; ++j) {
      const double w = rng.Uniform(-3.0, 3.0);
      const double scale = rng.Uniform(0.05, 0.4);
      switch ((i + j) % 5) {
        case 0:
          dims.push_back(uncertain::UniformPdf::Centered(w, scale));
          break;
        case 1:
          dims.push_back(uncertain::TruncatedNormalPdf::Make(w, scale));
          break;
        case 2:
          dims.push_back(uncertain::TruncatedExponentialPdf::Make(w, 1.0 / scale));
          break;
        case 3:
          dims.push_back(uncertain::DiracPdf::Make(w));
          break;
        default: {
          std::vector<double> values, weights;
          for (int s = 0; s < 4; ++s) {
            values.push_back(w + rng.Uniform(-scale, scale));
            weights.push_back(rng.Uniform(0.1, 2.0));
          }
          dims.push_back(std::make_shared<uncertain::DiscretePdf>(
              std::move(values), std::move(weights)));
        }
      }
    }
    objects.emplace_back(std::move(dims));
  }
  return objects;
}

// Writes `objects` (with labels i % 3) to a fresh file and returns its path.
std::string WriteTestFile(const std::string& file,
                          const std::vector<UncertainObject>& objects,
                          int num_classes = 3) {
  const std::string path = TempPath(file);
  io::BinaryDatasetWriter writer;
  EXPECT_TRUE(writer
                  .Open(path, objects[0].dims(), "io-test", num_classes,
                        /*with_labels=*/true)
                  .ok());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_TRUE(writer.Append(objects[i], static_cast<int>(i % 3)).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

void ExpectBitIdentical(const MomentView& a, const MomentView& b) {
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
    const double ta = a.total_variance(i), tb = b.total_variance(i);
    ASSERT_EQ(0, std::memcmp(&ta, &tb, sizeof(double))) << "total var " << i;
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

TEST(BinaryFormatTest, RoundTripReproducesEverythingBitIdentically) {
  const auto objects = MakeTestObjects(37, 3, /*seed=*/11);
  const std::string path = WriteTestFile("roundtrip.ubin", objects);

  auto loaded = io::ReadUncertainDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const data::UncertainDataset ds = std::move(loaded).ValueOrDie();

  EXPECT_EQ("io-test", ds.name());
  EXPECT_EQ(3, ds.num_classes());
  ASSERT_EQ(objects.size(), ds.size());
  ASSERT_EQ(objects.size(), ds.labels().size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(static_cast<int>(i % 3), ds.labels()[i]);
    const UncertainObject& a = objects[i];
    const UncertainObject& b = ds.object(i);
    ASSERT_EQ(a.dims(), b.dims());
    for (std::size_t j = 0; j < a.dims(); ++j) {
      EXPECT_STREQ(a.pdf(j).TypeName(), b.pdf(j).TypeName());
      // Bit-exact: the format stores constructor-exact parameters, so every
      // derived quantity is recomputed identically.
      EXPECT_EQ(a.mean()[j], b.mean()[j]) << "object " << i << " dim " << j;
      EXPECT_EQ(a.second_moment()[j], b.second_moment()[j]);
      EXPECT_EQ(a.variance()[j], b.variance()[j]);
      EXPECT_EQ(a.pdf(j).lower(), b.pdf(j).lower());
      EXPECT_EQ(a.pdf(j).upper(), b.pdf(j).upper());
    }
    EXPECT_EQ(a.total_variance(), b.total_variance());
  }
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, StreamedIngestionMatchesInMemoryObjects) {
  const auto objects = MakeTestObjects(101, 4, /*seed=*/23);
  const std::string path = WriteTestFile("streamed.ubin", objects);
  const MomentMatrix reference = MomentMatrix::FromObjects(objects);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{32}, std::size_t{1000}}) {
    std::vector<int> labels;
    auto streamed = io::StreamMomentsFromFile(path, batch, &labels);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    const MomentMatrix mm = std::move(streamed).ValueOrDie();
    ExpectBitIdentical(reference, mm);
    ASSERT_EQ(objects.size(), labels.size());
  }

  // The resident dataset's own accessor packs the same bits.
  std::vector<UncertainObject> copy = objects;
  const data::UncertainDataset ds("objects", std::move(copy), {}, 0);
  ExpectBitIdentical(reference, ds.moments());
  std::remove(path.c_str());
}

// ---------------------------------------------------- decoder parity ----

// Drains `path` through BinaryDatasetReader::ReadMomentRows, `batch` rows
// per call, into a MomentMatrix.
common::Result<MomentMatrix> DecodeMoments(const std::string& path,
                                           std::size_t batch) {
  io::BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path));
  const std::size_t n = reader.size(), m = reader.dims();
  std::vector<double> mean(n * m), mu2(n * m), var(n * m), total_var(n);
  std::size_t done = 0;
  while (reader.remaining() > 0) {
    std::size_t rows = 0;
    UCLUST_RETURN_NOT_OK(reader.ReadMomentRows(
        batch, &rows, mean.data() + done * m, mu2.data() + done * m,
        var.data() + done * m, total_var.data() + done));
    EXPECT_EQ(std::min(batch, n - done), rows);
    done += rows;
  }
  return MomentMatrix::FromColumns(n, m, std::move(mean), std::move(mu2),
                                   std::move(var), std::move(total_var));
}

// Every moment consumer of a .ubin must reproduce the object path — the
// oracle — bit for bit.
void ExpectEveryDecoderMatchesObjects(const std::string& path) {
  auto ds = io::ReadUncertainDataset(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const MomentMatrix oracle =
      MomentMatrix::FromObjects(ds.ValueOrDie().objects());

  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    auto decoded = DecodeMoments(path, batch);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectBitIdentical(oracle, decoded.ValueOrDie());
    auto streamed = io::StreamMomentsFromFile(path, batch);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ExpectBitIdentical(oracle, streamed.ValueOrDie());
  }

  // Both factory backends: budget-free resident columns, and under a 1-byte
  // budget a sidecar pre-built in 8-row chunks from 7-row decode batches,
  // which the factory reuses (its requirement is 64 rows).
  const std::string sidecar = path + ".parity.umom";
  ASSERT_TRUE(io::BuildMomentSidecar(path, sidecar, /*chunk_rows=*/8,
                                     /*batch_size=*/7)
                  .ok());
  engine::EngineConfig tiny;
  tiny.memory_budget_bytes = 1;
  for (const engine::Engine& eng :
       {engine::Engine::Serial(), engine::Engine(tiny)}) {
    auto store = io::StreamMomentStoreFromFile(path, eng, sidecar);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ExpectBitIdentical(oracle, store.ValueOrDie()->view());
  }
  std::remove(sidecar.c_str());
}

// Writes `n` objects of `m` dimensions, every pdf from `make(i, j)`.
template <typename MakePdf>
std::string WriteFamilyFile(const std::string& file, std::size_t n,
                            std::size_t m, MakePdf make) {
  std::vector<UncertainObject> objects;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<PdfPtr> dims;
    for (std::size_t j = 0; j < m; ++j) dims.push_back(make(i, j));
    objects.emplace_back(std::move(dims));
  }
  return WriteTestFile(file, objects);
}

TEST(MomentDecoderTest, DiracMatchesObjectPath) {
  const double values[] = {0.0, -0.0, 1.0, -3.25, 1e6 + 1e-6, 1e-300,
                           1e150, -1e200, 4.9e-324};
  const std::string path = WriteFamilyFile(
      "dec_dirac.ubin", 23, 3, [&](std::size_t i, std::size_t j) {
        return uncertain::DiracPdf::Make(values[(i * 3 + j) % 9]);
      });
  ExpectEveryDecoderMatchesObjects(path);
  std::remove(path.c_str());
}

TEST(MomentDecoderTest, UniformMatchesObjectPath) {
  common::Rng rng(3);
  const std::string path = WriteFamilyFile(
      "dec_uniform.ubin", 29, 3, [&](std::size_t i, std::size_t) {
        switch (i % 4) {
          case 0:  // the widest finite support
            return PdfPtr(
                std::make_shared<uncertain::UniformPdf>(-1e300, 1e300));
          case 1:  // offset 1e6, variance ~1e-6
            return uncertain::UniformPdf::Centered(1e6 + rng.Uniform(0, 1),
                                                   1.7e-3);
          case 2:
            return PdfPtr(
                std::make_shared<uncertain::UniformPdf>(1e300 / 3, 1e300));
          default:
            return uncertain::UniformPdf::Centered(rng.Uniform(-5, 5),
                                                   rng.Uniform(0.01, 2));
        }
      });
  ExpectEveryDecoderMatchesObjects(path);
  std::remove(path.c_str());
}

TEST(MomentDecoderTest, NormalMatchesObjectPath) {
  common::Rng rng(5);
  const std::string path = WriteFamilyFile(
      "dec_normal.ubin", 31, 3, [&](std::size_t i, std::size_t) {
        const double mu = 1e6 + rng.Uniform(-1, 1);
        switch (i % 3) {
          case 0:  // the narrowest half-width the reader accepts
            return uncertain::TruncatedNormalPdf::FromHalfWidth(
                mu, rng.Uniform(0.1, 2), io::kMinNormalHalfWidth);
          case 1:  // offset 1e6, variance ~1e-6
            return uncertain::TruncatedNormalPdf::Make(mu, 1e-3);
          default:
            return uncertain::TruncatedNormalPdf::FromHalfWidth(
                rng.Uniform(-5, 5), rng.Uniform(0.01, 3), rng.Uniform(0.5, 6));
        }
      });
  ExpectEveryDecoderMatchesObjects(path);
  std::remove(path.c_str());
}

// The decoder memoizes the last half-width's variance factor; entries whose
// c runs a, a, b, a (across dimension and record boundaries, at every batch
// size) must still decode to the pdf objects' moments bit for bit.
TEST(MomentDecoderTest, NormalHalfWidthMemoFollowsEveryChange) {
  const double a = common::kNormal95;  // the default coverage's half-width
  const double b = 2.5;
  const double cycle[] = {a, a, b, a};
  common::Rng rng(13);
  const std::string path = WriteFamilyFile(
      "dec_normal_memo.ubin", 19, 3, [&](std::size_t i, std::size_t j) {
        return uncertain::TruncatedNormalPdf::FromHalfWidth(
            rng.Uniform(-5, 5), rng.Uniform(0.01, 3), cycle[(i * 3 + j) % 4]);
      });
  ExpectEveryDecoderMatchesObjects(path);
  std::remove(path.c_str());

  // The factor is the closed form's sigma-free part, with the same rounding.
  for (const double c : {a, b, io::kMinNormalHalfWidth, 6.0}) {
    for (const double sigma : {1e-3, 0.37, 2.0}) {
      const double whole =
          uncertain::TruncatedNormalPdf::TruncatedVariance(sigma, c);
      const double split =
          (sigma * sigma) * uncertain::TruncatedNormalPdf::VarianceFactor(c);
      EXPECT_EQ(0, std::memcmp(&whole, &split, sizeof(double)))
          << "c=" << c << " sigma=" << sigma;
    }
  }
}

TEST(MomentDecoderTest, ExponentialMatchesObjectPath) {
  common::Rng rng(7);
  const std::string path = WriteFamilyFile(
      "dec_exponential.ubin", 27, 3, [&](std::size_t i, std::size_t) {
        return i % 2 == 0
                   // offset 1e6, variance ~1e-6
                   ? uncertain::TruncatedExponentialPdf::Make(
                         1e6 + rng.Uniform(-1, 1), 1e3)
                   : uncertain::TruncatedExponentialPdf::Make(
                         rng.Uniform(-5, 5), rng.Uniform(0.1, 50));
      });
  ExpectEveryDecoderMatchesObjects(path);
  std::remove(path.c_str());
}

TEST(MomentDecoderTest, DiscreteMatchesObjectPath) {
  common::Rng rng(11);
  const std::string path = WriteFamilyFile(
      "dec_discrete.ubin", 25, 2, [&](std::size_t i, std::size_t) {
        // Counts 1 and 64 included; values offset by 1e6 with a ~1e-3
        // spread (variance ~1e-6).
        const std::size_t count = i % 3 == 0 ? 1 : (i % 3 == 1 ? 64 : 5);
        std::vector<double> values, weights;
        for (std::size_t s = 0; s < count; ++s) {
          values.push_back(1e6 + rng.Uniform(-1e-3, 1e-3));
          weights.push_back(rng.Uniform(0.05, 3.0));
        }
        return PdfPtr(std::make_shared<uncertain::DiscretePdf>(
            std::move(values), std::move(weights)));
      });
  ExpectEveryDecoderMatchesObjects(path);
  std::remove(path.c_str());
}

TEST(MomentDecoderTest, MixedFamiliesMatchObjectPath) {
  const auto objects = MakeTestObjects(67, 5, /*seed=*/31);
  const std::string path = WriteTestFile("dec_mixed.ubin", objects);
  ExpectEveryDecoderMatchesObjects(path);
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsForeignEndianFiles) {
  const auto objects = MakeTestObjects(3, 2, /*seed=*/5);
  const std::string path = WriteTestFile("endian.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t swapped = io::kEndianTagSwapped;
  std::memcpy(bytes.data() + 8, &swapped, sizeof(swapped));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  const common::Status st = reader.Open(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string::npos, st.message().find("endian")) << st.ToString();
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsNewerFormatVersions) {
  const auto objects = MakeTestObjects(3, 2, /*seed=*/5);
  const std::string path = WriteTestFile("version.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t future = io::kFormatVersion + 41;
  std::memcpy(bytes.data() + 12, &future, sizeof(future));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  const common::Status st = reader.Open(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(std::string::npos, st.message().find("version")) << st.ToString();
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsBadMagicAndShortFiles) {
  const std::string path = TempPath("magic.ubin");
  WriteFileBytes(path, std::vector<char>(128, 'x'));
  io::BinaryDatasetReader reader;
  EXPECT_FALSE(reader.Open(path).ok());

  WriteFileBytes(path, std::vector<char>(10, 'x'));
  io::BinaryDatasetReader short_reader;
  EXPECT_FALSE(short_reader.Open(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsTruncatedObjectRecords) {
  const auto objects = MakeTestObjects(8, 3, /*seed=*/17);
  const std::string path = WriteTestFile("trunc.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() / 2);
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());  // header is intact
  std::vector<UncertainObject> batch;
  common::Status st = common::Status::Ok();
  while (reader.remaining() > 0) {
    st = reader.ReadBatch(4, &batch);
    if (!st.ok()) break;
  }
  EXPECT_FALSE(st.ok());
  std::remove(path.c_str());
}

// Writes one single-dimension object so record offsets are computable:
// header (64) + name ("io-test", 7) + u32 payload, then the pdf record.
std::string WriteSingleObjectFile(const std::string& file, PdfPtr pdf) {
  const std::string path = TempPath(file);
  io::BinaryDatasetWriter writer;
  EXPECT_TRUE(writer.Open(path, 1, "io-test", 2, /*with_labels=*/true).ok());
  std::vector<PdfPtr> dims{std::move(pdf)};
  EXPECT_TRUE(writer.Append(UncertainObject(std::move(dims)), 1).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

constexpr std::size_t kRecordStart = 64 + 7;  // header + "io-test"

TEST(BinaryFormatTest, RejectsOversizedDiscreteCountWithoutAllocating) {
  const std::string path = WriteSingleObjectFile(
      "hugecount.ubin", uncertain::DiscretePdf::Uniformly({1.0, 2.0, 3.0}));
  std::vector<char> bytes = ReadFileBytes(path);
  // Record layout: u32 payload, u8 tag (kPdfDiscrete), u32 count, ...
  const uint32_t huge = 0xffffffffu;
  std::memcpy(bytes.data() + kRecordStart + 5, &huge, sizeof(huge));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<UncertainObject> batch;
  // Must fail with a Status — not std::bad_alloc from a ~64 GB vector.
  EXPECT_FALSE(reader.ReadBatch(1, &batch).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsDiscreteWeightsThatDoNotSumToOne) {
  const std::string path = WriteSingleObjectFile(
      "badweights.ubin", uncertain::DiscretePdf::Uniformly({1.0, 2.0}));
  std::vector<char> bytes = ReadFileBytes(path);
  // First weight sits after payload(4) + tag(1) + count(4) + 2 values(16).
  const double bogus = 7.5;
  std::memcpy(bytes.data() + kRecordStart + 25, &bogus, sizeof(bogus));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<UncertainObject> batch;
  EXPECT_FALSE(reader.ReadBatch(1, &batch).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsDegenerateNormalHalfWidth) {
  const std::string path = WriteSingleObjectFile(
      "tinyc.ubin", uncertain::TruncatedNormalPdf::Make(0.5, 0.1));
  std::vector<char> bytes = ReadFileBytes(path);
  // Half-width field sits after payload(4) + tag(1) + mu(8) + sigma(8); a
  // sub-1e-16 value would make the truncated-variance formula emit -inf.
  const double tiny = 1e-20;
  std::memcpy(bytes.data() + kRecordStart + 21, &tiny, sizeof(tiny));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<UncertainObject> batch;
  EXPECT_FALSE(reader.ReadBatch(1, &batch).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsExponentialRateWithInfiniteVariance) {
  const std::string path = WriteSingleObjectFile(
      "tinyrate.ubin", uncertain::TruncatedExponentialPdf::Make(0.5, 2.0));
  std::vector<char> bytes = ReadFileBytes(path);
  // Rate field sits after payload(4) + tag(1) + w(8). At 1e-200, rate^2
  // underflows: the variance is infinite and the support's upper end NaN.
  const double tiny = 1e-200;
  std::memcpy(bytes.data() + kRecordStart + 13, &tiny, sizeof(tiny));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<UncertainObject> batch;
  EXPECT_FALSE(reader.ReadBatch(1, &batch).ok());
  EXPECT_FALSE(DecodeMoments(path, 1).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsObjectCountInconsistentWithFileSize) {
  const auto objects = MakeTestObjects(3, 2, /*seed=*/5);
  const std::string path = WriteTestFile("hugen.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  const uint64_t huge_n = uint64_t{1} << 40;  // far beyond the file's bytes
  std::memcpy(bytes.data() + 16, &huge_n, sizeof(huge_n));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  EXPECT_FALSE(reader.Open(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, RejectsNameLengthInconsistentWithFileSize) {
  const auto objects = MakeTestObjects(3, 2, /*seed=*/5);
  const std::string path = WriteTestFile("hugename.ubin", objects);
  std::vector<char> bytes = ReadFileBytes(path);
  const uint32_t huge_len = 0xffffffffu;
  std::memcpy(bytes.data() + 48, &huge_len, sizeof(huge_len));
  WriteFileBytes(path, bytes);

  io::BinaryDatasetReader reader;
  // Must fail with a Status — not a ~4 GB string allocation.
  EXPECT_FALSE(reader.Open(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryFormatTest, ReadLabelsDoesNotDisturbBatchStreaming) {
  const auto objects = MakeTestObjects(20, 2, /*seed=*/41);
  const std::string path = WriteTestFile("labels.ubin", objects);

  io::BinaryDatasetReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<UncertainObject> batch;
  ASSERT_TRUE(reader.ReadBatch(7, &batch).ok());
  ASSERT_EQ(7u, batch.size());

  std::vector<int> labels;
  ASSERT_TRUE(reader.ReadLabels(&labels).ok());  // mid-stream
  ASSERT_EQ(objects.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(static_cast<int>(i % 3), labels[i]);
  }

  std::size_t streamed = batch.size();
  while (reader.remaining() > 0) {
    ASSERT_TRUE(reader.ReadBatch(7, &batch).ok());
    for (const auto& o : batch) {
      EXPECT_EQ(objects[streamed].mean()[0], o.mean()[0]);
      ++streamed;
    }
  }
  EXPECT_EQ(objects.size(), streamed);
  std::remove(path.c_str());
}

// ---------------------------------------------------- mutation fuzz ----

// Byte offsets of every object record's u32 length prefix in a clean file.
std::vector<std::size_t> RecordOffsets(const std::vector<char>& bytes) {
  uint64_t n = 0;
  uint32_t name_len = 0;
  std::memcpy(&n, bytes.data() + 16, sizeof(n));
  std::memcpy(&name_len, bytes.data() + 48, sizeof(name_len));
  std::vector<std::size_t> offsets;
  std::size_t at = io::kHeaderBytes + name_len;
  for (uint64_t i = 0; i < n; ++i) {
    offsets.push_back(at);
    uint32_t payload = 0;
    std::memcpy(&payload, bytes.data() + at, sizeof(payload));
    at += sizeof(payload) + payload;
  }
  return offsets;
}

// Reads every record through ReadBatch and packs the objects: the pdf
// path's verdict on a file.
common::Result<MomentMatrix> ReadThroughObjects(const std::string& path,
                                                std::size_t batch) {
  io::BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path));
  std::vector<UncertainObject> all, part;
  while (reader.remaining() > 0) {
    UCLUST_RETURN_NOT_OK(reader.ReadBatch(batch, &part));
    for (auto& o : part) all.push_back(std::move(o));
  }
  return MomentMatrix::FromObjects(all);
}

// One seeded mutation of a random corpus file: bit flips, a truncation, a
// record length-prefix edit, a record spliced in from another corpus file,
// or a parameter overwritten with a boundary value.
std::vector<char> Mutate(const std::vector<std::vector<char>>& corpus,
                         common::Rng* rng) {
  const std::vector<char>& base = corpus[rng->Index(corpus.size())];
  const std::vector<std::size_t> offsets = RecordOffsets(base);
  const std::size_t begin = offsets.front();
  std::vector<char> bytes = base;
  switch (rng->Index(5)) {
    case 0: {
      const std::size_t flips = 1 + rng->Index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[begin + rng->Index(bytes.size() - begin)] ^=
            static_cast<char>(1u << rng->Index(8));
      }
      break;
    }
    case 1:
      bytes.resize(begin + rng->Index(bytes.size() - begin));
      break;
    case 2: {
      const std::size_t at = offsets[rng->Index(offsets.size())];
      uint32_t payload = 0;
      std::memcpy(&payload, bytes.data() + at, sizeof(payload));
      const uint32_t grow = 1 + static_cast<uint32_t>(rng->Index(16));
      const uint32_t shrink = 1 + static_cast<uint32_t>(rng->Index(8));
      const uint32_t edits[] = {0u, payload + grow, payload - shrink,
                                0xffffffffu,
                                static_cast<uint32_t>(bytes.size())};
      payload = edits[rng->Index(5)];
      std::memcpy(bytes.data() + at, &payload, sizeof(payload));
      break;
    }
    case 3: {
      const std::vector<char>& donor = corpus[rng->Index(corpus.size())];
      const std::vector<std::size_t> donor_offsets = RecordOffsets(donor);
      const std::size_t d = rng->Index(donor_offsets.size());
      uint32_t donor_payload = 0;
      std::memcpy(&donor_payload, donor.data() + donor_offsets[d],
                  sizeof(donor_payload));
      const auto donor_begin = donor.begin() + donor_offsets[d];
      const auto donor_end = donor_begin + sizeof(uint32_t) + donor_payload;
      const std::size_t r = rng->Index(offsets.size());
      uint32_t payload = 0;
      std::memcpy(&payload, bytes.data() + offsets[r], sizeof(payload));
      const auto cut = bytes.begin() + offsets[r];
      // Replace record r, or insert before it.
      const auto cut_end =
          rng->Bernoulli(0.5) ? cut + sizeof(uint32_t) + payload : cut;
      std::vector<char> spliced(bytes.begin(), cut);
      spliced.insert(spliced.end(), donor_begin, donor_end);
      spliced.insert(spliced.end(), cut_end, bytes.end());
      bytes = std::move(spliced);
      break;
    }
    default: {
      const double specials[] = {
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          0.0,
          -0.0,
          -1.0,
          1e300,
          io::kMinNormalHalfWidth,
          std::nextafter(io::kMinNormalHalfWidth, 0.0),
          std::numeric_limits<double>::denorm_min()};
      const double v = specials[rng->Index(10)];
      // Any byte position: tags and counts get hit as well as doubles.
      const std::size_t at =
          begin + rng->Index(bytes.size() - begin - sizeof(double));
      std::memcpy(bytes.data() + at, &v, sizeof(v));
      break;
    }
  }
  return bytes;
}

TEST(RecordDecoderFuzz, ReadBatchAndReadMomentRowsAgreeOnEveryMutant) {
  // Corpus: one small file per pdf family plus a mixed one.
  common::Rng gen(19);
  std::vector<std::vector<char>> corpus;
  const std::string corpus_path = TempPath("fuzz_corpus.ubin");
  auto add = [&](std::size_t n, std::size_t m, auto make) {
    std::vector<UncertainObject> objects;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<PdfPtr> dims;
      for (std::size_t j = 0; j < m; ++j) dims.push_back(make());
      objects.emplace_back(std::move(dims));
    }
    const std::string written = WriteTestFile("fuzz_corpus.ubin", objects);
    corpus.push_back(ReadFileBytes(written));
  };
  add(4, 2, [&] { return uncertain::DiracPdf::Make(gen.Uniform(-9, 9)); });
  add(4, 2, [&] {
    return uncertain::UniformPdf::Centered(gen.Uniform(-9, 9), 0.5);
  });
  add(3, 3, [&] {
    return uncertain::TruncatedNormalPdf::Make(gen.Uniform(-9, 9), 0.3);
  });
  add(4, 2, [&] {
    return uncertain::TruncatedExponentialPdf::Make(gen.Uniform(-9, 9), 4.0);
  });
  add(3, 2, [&] {
    return uncertain::DiscretePdf::Uniformly(
        {gen.Uniform(-9, 9), gen.Uniform(-9, 9), gen.Uniform(-9, 9)});
  });
  {
    const auto objects = MakeTestObjects(5, 3, /*seed=*/2);
    corpus.push_back(ReadFileBytes(WriteTestFile("fuzz_corpus.ubin", objects)));
  }

  common::Rng rng(20260417);
  const std::string path = TempPath("fuzz_mutant.ubin");
  const std::size_t batches[] = {1, 2, 4096};
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    WriteFileBytes(path, Mutate(corpus, &rng));
    const std::size_t batch = batches[iter % 3];
    auto objects = ReadThroughObjects(path, batch);
    auto decoded = DecodeMoments(path, batch);
    ASSERT_EQ(objects.status().ToString(), decoded.status().ToString())
        << "mutant " << iter;
    if (objects.ok()) {
      ++accepted;
      ExpectBitIdentical(objects.ValueOrDie(), decoded.ValueOrDie());
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "mutant " << iter;
    } else {
      ++rejected;
    }
  }
  // The mutations must exercise both verdicts.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  std::remove(path.c_str());
  std::remove(corpus_path.c_str());
}

TEST(BinaryDatasetWriterTest, ValidatesArguments) {
  io::BinaryDatasetWriter writer;
  EXPECT_FALSE(writer.Open(TempPath("bad.ubin"), 0, "x", 0, false).ok());
  EXPECT_FALSE(writer.Open(TempPath("bad.ubin"), 2, "x", 3, false).ok());

  io::BinaryDatasetWriter labeled;
  const std::string path = TempPath("validate.ubin");
  ASSERT_TRUE(labeled.Open(path, 2, "x", 2, true).ok());
  const auto objects = MakeTestObjects(2, 2, /*seed=*/3);
  EXPECT_FALSE(labeled.Append(objects[0], -1).ok());  // label required
  const auto wrong_dims = MakeTestObjects(1, 3, /*seed=*/3);
  EXPECT_FALSE(labeled.Append(wrong_dims[0], 0).ok());
  EXPECT_TRUE(labeled.Append(objects[0], 0).ok());
  EXPECT_TRUE(labeled.Append(objects[1], 1).ok());
  EXPECT_TRUE(labeled.Finish().ok());
  EXPECT_EQ(2u, labeled.written());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uclust
