// Tests for the chunked-sidecar core shared by the .umom and .usmp formats,
// each run once per layout: header validation (foreign endianness, newer
// versions, bad magic, truncation and padding, non-power-of-two chunk_rows,
// out-of-range format fields, shapes that overflow the size check), chunk
// hint normalization, an open store keeping its own file when a rebuild is
// renamed over the path, and a seeded mutation fuzz of both readers.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/binary_format.h"
#include "io/chunked_sidecar.h"
#include "io/moment_file.h"
#include "io/moment_format.h"
#include "io/sample_file.h"
#include "io/sample_format.h"
#include "uncertain/moments.h"
#include "uncertain/sample_store.h"

namespace uclust {
namespace {

std::string TempPath(const std::string& file) {
  return ::testing::TempDir() + file;
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

void Put64(std::vector<char>* bytes, std::size_t offset, uint64_t v) {
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

std::vector<double> RandomValues(std::size_t count, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.Uniform(-5.0, 5.0);
  return values;
}

// An open mapped store of either format, reduced to what these tests check.
class OpenedStore {
 public:
  virtual ~OpenedStore() = default;
  virtual std::size_t chunk_rows() const = 0;
  // Every served double, row by row, read through the store's chunked view.
  virtual std::vector<double> Sweep() const = 0;
};

class OpenedMoments final : public OpenedStore {
 public:
  explicit OpenedMoments(std::unique_ptr<io::MappedMomentStore> store)
      : store_(std::move(store)) {}
  std::size_t chunk_rows() const override { return store_->chunk_rows(); }
  std::vector<double> Sweep() const override {
    const uncertain::MomentView view = store_->view();
    std::vector<double> out;
    for (std::size_t i = 0; i < view.size(); ++i) {
      for (const auto column :
           {view.mean(i), view.second_moment(i), view.variance(i)}) {
        out.insert(out.end(), column.begin(), column.end());
      }
      out.push_back(view.total_variance(i));
    }
    return out;
  }

 private:
  std::unique_ptr<io::MappedMomentStore> store_;
};

class OpenedSamples final : public OpenedStore {
 public:
  explicit OpenedSamples(std::unique_ptr<io::MappedSampleStore> store)
      : store_(std::move(store)) {}
  std::size_t chunk_rows() const override { return store_->chunk_rows(); }
  std::vector<double> Sweep() const override {
    const uncertain::SampleView view = store_->view();
    std::vector<double> out;
    for (std::size_t i = 0; i < view.size(); ++i) {
      const auto row = view.ObjectSamples(i);
      out.insert(out.end(), row.begin(), row.end());
    }
    return out;
  }

 private:
  std::unique_ptr<io::MappedSampleStore> store_;
};

// One sidecar format: its layout, a writer of seeded n x m sidecars, and its
// mapped store's Open. Write returns the values a sweep must serve.
struct Format {
  const char* name;
  const io::SidecarLayout* layout;
  std::vector<double> (*write)(const std::string& path, std::size_t n,
                               std::size_t m, std::size_t chunk_rows,
                               uint64_t seed);
  common::Result<std::unique_ptr<OpenedStore>> (*open)(const std::string&);
};

// Names the parameter in gtest failure messages.
void PrintTo(const Format& format, std::ostream* os) { *os << format.name; }

constexpr int kSamples = 4;

std::vector<double> WriteMoments(const std::string& path, std::size_t n,
                                  std::size_t m, std::size_t chunk_rows,
                                  uint64_t seed) {
  const auto mm = uncertain::MomentMatrix::FromColumns(
      n, m, RandomValues(n * m, seed), RandomValues(n * m, seed + 1),
      RandomValues(n * m, seed + 2), RandomValues(n, seed + 3));
  EXPECT_TRUE(io::WriteMomentFile(mm.view(), path, chunk_rows).ok());
  std::vector<double> rows;
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto column : {mm.view().mean(i), mm.view().second_moment(i),
                              mm.view().variance(i)}) {
      rows.insert(rows.end(), column.begin(), column.end());
    }
    rows.push_back(mm.view().total_variance(i));
  }
  return rows;
}

std::vector<double> WriteSamples(const std::string& path, std::size_t n,
                                 std::size_t m, std::size_t chunk_rows,
                                 uint64_t seed) {
  const std::vector<double> rows = RandomValues(n * kSamples * m, seed);
  const uncertain::SampleView view(n, kSamples, m, rows.data());
  EXPECT_TRUE(io::WriteSampleFile(view, path, seed, chunk_rows).ok());
  return rows;
}

common::Result<std::unique_ptr<OpenedStore>> OpenMoments(
    const std::string& path) {
  auto store = io::MappedMomentStore::Open(path);
  UCLUST_RETURN_NOT_OK(store.status());
  return std::unique_ptr<OpenedStore>(
      new OpenedMoments(std::move(store).ValueOrDie()));
}

common::Result<std::unique_ptr<OpenedStore>> OpenSamples(
    const std::string& path) {
  auto store = io::MappedSampleStore::Open(path);
  UCLUST_RETURN_NOT_OK(store.status());
  return std::unique_ptr<OpenedStore>(
      new OpenedSamples(std::move(store).ValueOrDie()));
}

const Format kMomentFormat{"Moment", &io::kMomentLayout, WriteMoments,
                           OpenMoments};
const Format kSampleFormat{"Sample", &io::kSampleLayout, WriteSamples,
                           OpenSamples};

class SidecarFormatTest : public ::testing::TestWithParam<Format> {
 protected:
  const Format& format() const { return GetParam(); }
  const io::SidecarLayout& layout() const { return *GetParam().layout; }
  std::string Path(const std::string& stem) const {
    return TempPath(std::string(format().name) + "_" + stem + ".sidecar");
  }
  // Writes `bytes` to `path` and expects Open to fail with `needle` in the
  // message.
  void ExpectRejected(const std::string& path, const std::vector<char>& bytes,
                      const std::string& needle) const {
    WriteFileBytes(path, bytes);
    const auto result = format().open(path);
    ASSERT_FALSE(result.ok()) << needle;
    EXPECT_NE(std::string::npos, result.status().message().find(needle))
        << result.status().ToString();
  }
};

TEST_P(SidecarFormatTest, RejectsForeignEndianSidecars) {
  const std::string sidecar = Path("endian");
  format().write(sidecar, 10, 2, 0, /*seed=*/5);
  std::vector<char> bytes = ReadFileBytes(sidecar);
  const uint32_t swapped = io::kEndianTagSwapped;
  std::memcpy(bytes.data() + 8, &swapped, sizeof(swapped));
  ExpectRejected(sidecar, bytes, "endian");
  std::remove(sidecar.c_str());
}

TEST_P(SidecarFormatTest, RejectsNewerVersionsAndBadMagic) {
  const std::string sidecar = Path("version");
  format().write(sidecar, 10, 2, 0, /*seed=*/5);
  const std::vector<char> bytes = ReadFileBytes(sidecar);

  std::vector<char> future = bytes;
  const uint32_t version = layout().version + 7;
  std::memcpy(future.data() + 12, &version, sizeof(version));
  ExpectRejected(sidecar, future, "unsupported");

  std::vector<char> magic = bytes;
  magic[0] = 'x';
  ExpectRejected(sidecar, magic, "bad magic");

  // Shorter than the header.
  ExpectRejected(sidecar, std::vector<char>(10, 'x'), "too short");
  std::remove(sidecar.c_str());
}

TEST_P(SidecarFormatTest, RejectsTruncatedAndPaddedSidecars) {
  const std::string sidecar = Path("size");
  format().write(sidecar, 20, 3, 0, /*seed=*/9);
  const std::vector<char> bytes = ReadFileBytes(sidecar);

  std::vector<char> truncated = bytes;
  truncated.resize(bytes.size() - 8);
  ExpectRejected(sidecar, truncated, "physical size");

  std::vector<char> padded = bytes;
  padded.push_back('x');
  ExpectRejected(sidecar, padded, "physical size");
  std::remove(sidecar.c_str());
}

TEST_P(SidecarFormatTest, RejectsNonPowerOfTwoChunkRows) {
  const std::string sidecar = Path("chunkpow");
  format().write(sidecar, 10, 2, 0, /*seed=*/5);
  std::vector<char> bytes = ReadFileBytes(sidecar);
  Put64(&bytes, layout().chunk_rows_offset, 3);
  ExpectRejected(sidecar, bytes, "power of two");
  std::remove(sidecar.c_str());
}

TEST_P(SidecarFormatTest, RejectsShapesThatOverflowTheSizeCheck) {
  const std::string sidecar = Path("overflow");
  format().write(sidecar, 10, 2, 0, /*seed=*/5);
  const std::vector<char> bytes = ReadFileBytes(sidecar);

  std::vector<char> wide = bytes;
  Put64(&wide, 24, UINT64_MAX / 8);  // m: the row width wraps
  ExpectRejected(sidecar, wide, "row shape overflows");

  std::vector<char> tall = bytes;
  Put64(&tall, 16, uint64_t{1} << 62);  // n: n * row bytes wraps
  ExpectRejected(sidecar, tall, "object count overflows");

  std::vector<char> flat = bytes;
  Put64(&flat, 24, 0);
  ExpectRejected(sidecar, flat, "zero dimensions");
  std::remove(sidecar.c_str());
}

TEST_P(SidecarFormatTest, NormalizeChunkRowsRoundsUpToPowersOfTwo) {
  EXPECT_EQ(layout().default_chunk_rows, io::NormalizeChunkRows(layout(), 0));
  EXPECT_EQ(1u, io::NormalizeChunkRows(layout(), 1));
  EXPECT_EQ(8u, io::NormalizeChunkRows(layout(), 5));
  EXPECT_EQ(layout().default_chunk_rows,
            io::NormalizeChunkRows(layout(), layout().default_chunk_rows));
  EXPECT_EQ(std::size_t{1} << 20,
            io::NormalizeChunkRows(layout(), (std::size_t{1} << 20) + 1));
}

// The store validates and maps through one descriptor, so a rebuild renamed
// over the path — same n and m (hence the same file size), other chunk_rows
// and other values — never reaches a store that is already open. The window
// between validating and opening cannot be hit deterministically from a
// test; validating through the descriptor closes it by construction.
TEST_P(SidecarFormatTest, OpenStoreKeepsItsFileWhenARebuildIsRenamedOver) {
  const std::string sidecar = Path("race");
  const std::string rebuilt = Path("race_rebuilt");
  const std::vector<double> a = format().write(sidecar, 37, 3, 4, /*seed=*/1);
  const std::vector<double> b = format().write(rebuilt, 37, 3, 16, /*seed=*/2);
  ASSERT_EQ(std::filesystem::file_size(sidecar),
            std::filesystem::file_size(rebuilt));
  ASSERT_NE(a, b);

  auto opened = format().open(sidecar);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::filesystem::rename(rebuilt, sidecar);

  const OpenedStore& old_store = *opened.ValueOrDie();
  EXPECT_EQ(4u, old_store.chunk_rows());
  EXPECT_EQ(a, old_store.Sweep());

  auto fresh = format().open(sidecar);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(16u, fresh.ValueOrDie()->chunk_rows());
  EXPECT_EQ(b, fresh.ValueOrDie()->Sweep());
  std::remove(sidecar.c_str());
}

// Seeded mutation fuzz: every mutant of a small valid corpus either fails to
// open with a Status or opens and serves every row without crashing (run it
// under ASan/UBSan to catch out-of-bounds reads).
TEST_P(SidecarFormatTest, MutatedSidecarsFailCleanlyOrServeEveryRow) {
  std::vector<std::vector<char>> corpus;
  const std::string corpus_path = Path("fuzz_corpus");
  const std::size_t shapes[][3] = {{0, 1, 4}, {1, 1, 1}, {5, 2, 2},
                                   {9, 3, 4}, {33, 1, 8}, {17, 4, 0}};
  for (const auto& shape : shapes) {
    format().write(corpus_path, shape[0], shape[1], shape[2],
                   /*seed=*/shape[0] + 7);
    corpus.push_back(ReadFileBytes(corpus_path));
  }
  const std::size_t header = layout().header_bytes;
  std::vector<std::size_t> u64_offsets = {16, 24, layout().chunk_rows_offset,
                                          layout().source_offset};
  for (std::size_t f = 0; f < layout().num_fields; ++f) {
    u64_offsets.push_back(layout().fields[f].offset);
  }
  const uint64_t boundary[] = {0,
                               1,
                               2,
                               3,
                               16,
                               uint64_t{1} << 31,
                               uint64_t{INT_MAX} + 1,
                               uint64_t{1} << 62,
                               UINT64_MAX / 8,
                               UINT64_MAX};

  common::Rng rng(20261017);
  const std::string path = Path("fuzz_mutant");
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const std::vector<char>& base = corpus[rng.Index(corpus.size())];
    std::vector<char> bytes = base;
    switch (rng.Index(5)) {
      case 0: {  // bit flips, anywhere
        const std::size_t flips = 1 + rng.Index(4);
        for (std::size_t f = 0; f < flips; ++f) {
          bytes[rng.Index(bytes.size())] ^=
              static_cast<char>(1u << rng.Index(8));
        }
        break;
      }
      case 1:  // truncation
        bytes.resize(rng.Index(bytes.size()));
        break;
      case 2:  // padding
        bytes.resize(bytes.size() + 1 + rng.Index(64), 'x');
        break;
      case 3:  // a header field overwritten with a boundary value
        Put64(&bytes, u64_offsets[rng.Index(u64_offsets.size())],
              boundary[rng.Index(std::size(boundary))]);
        break;
      default: {  // another corpus file's header over this payload
        const std::vector<char>& donor = corpus[rng.Index(corpus.size())];
        std::copy(donor.begin(), donor.begin() + header, bytes.begin());
        break;
      }
    }
    WriteFileBytes(path, bytes);
    auto opened = format().open(path);
    if (!opened.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    // The exact-size check makes every accepted header describe the file.
    const std::vector<double> served = opened.ValueOrDie()->Sweep();
    ASSERT_EQ(bytes.size() - header, served.size() * sizeof(double))
        << "mutant " << iter;
  }
  // The mutations must exercise both verdicts.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  std::remove(path.c_str());
  std::remove(corpus_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    BothLayouts, SidecarFormatTest,
    ::testing::Values(kMomentFormat, kSampleFormat),
    [](const ::testing::TestParamInfo<Format>& info) {
      return std::string(info.param.name);
    });

TEST(SampleSidecarFormatTest, RejectsSamplesPerObjectOutOfRange) {
  const std::string sidecar = TempPath("smp_range.usmp");
  WriteSamples(sidecar, 6, 2, 0, /*seed=*/3);
  const std::vector<char> bytes = ReadFileBytes(sidecar);
  const std::size_t s_offset = io::kSampleLayout.fields[0].offset;
  for (const uint64_t s : {uint64_t{0}, uint64_t{INT_MAX} + 1}) {
    std::vector<char> mutant = bytes;
    Put64(&mutant, s_offset, s);
    WriteFileBytes(sidecar, mutant);
    const auto result = io::MappedSampleStore::Open(sidecar);
    ASSERT_FALSE(result.ok()) << "S = " << s;
    EXPECT_NE(std::string::npos,
              result.status().message().find("samples_per_object out of range"))
        << result.status().ToString();
  }
  std::remove(sidecar.c_str());
}

}  // namespace
}  // namespace uclust
