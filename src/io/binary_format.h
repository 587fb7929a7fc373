// On-disk layout of the uclust binary dataset format (".ubin").
//
// The format stores an uncertain dataset as a fixed header plus one
// variable-length record per object, followed by an optional labels column.
// It is designed for one-pass bounded-memory streaming (fread batch by
// batch; see dataset_reader.h) and is equally mmap-friendly: every object
// record carries its own byte length, so a consumer can skip records without
// parsing pdf payloads.
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     8  magic "uclustds"
//        8     4  u32 endian tag 0x01020304 (readers reject byte-swapped
//                 files instead of silently mis-parsing them)
//       12     4  u32 format version (kFormatVersion; readers reject newer)
//       16     8  u64 n — number of objects (patched on Finish())
//       24     8  u64 m — dimensionality
//       32     4  i32 num_classes (0 when unlabeled)
//       36     4  u32 flags (kFlagHasLabels)
//       40     8  u64 labels_offset — file offset of the labels column
//                 (0 when unlabeled; patched on Finish())
//       48     4  u32 name_len
//       52    12  reserved (zero)
//       64     -  dataset name (name_len bytes, no terminator)
//        -     -  n object records (see below)
//        -     -  labels column: n * i32 (only when kFlagHasLabels)
//
// Object record: u32 payload_bytes, then exactly m pdf records back to back.
// Pdf record: u8 type tag followed by the type's constructor-exact
// parameters as f64 (plus a u32 count for discrete):
//
//   kPdfDirac        x
//   kPdfUniform      lo, hi
//   kPdfNormal       mu, sigma, half_width_sigmas
//   kPdfExponential  mean w, rate
//   kPdfDiscrete     u32 count, count values, count normalized weights
//
// "Constructor-exact" is the format's core guarantee: the stored parameters
// feed straight back into the pdf constructors (TruncatedNormalPdf::
// FromHalfWidth, DiscretePdf::FromNormalized, ...), so a write -> read round
// trip reproduces every moment bit-for-bit, and decoding records straight
// into moment rows (BinaryDatasetReader::ReadMomentRows) matches building
// the pdfs exactly (tests/test_io.cc).
//
// All integers are little-endian; all reals are IEEE-754 binary64. Version
// history: 1 = initial layout.
#ifndef UCLUST_IO_BINARY_FORMAT_H_
#define UCLUST_IO_BINARY_FORMAT_H_

#include <cstdint>

namespace uclust::io {

/// File magic, first 8 bytes of every dataset file.
inline constexpr char kMagic[8] = {'u', 'c', 'l', 'u', 's', 't', 'd', 's'};

/// Endianness canary as written by the producing machine.
inline constexpr uint32_t kEndianTag = 0x01020304u;
/// What kEndianTag reads as on an opposite-endian machine.
inline constexpr uint32_t kEndianTagSwapped = 0x04030201u;

/// Current (and only) format version.
inline constexpr uint32_t kFormatVersion = 1;

/// Total bytes of the fixed header (the name follows immediately after).
inline constexpr std::size_t kHeaderBytes = 64;

/// Header flag: a labels column of n i32 follows the object records.
inline constexpr uint32_t kFlagHasLabels = 1u << 0;

/// Per-dimension pdf record tags.
enum PdfTag : uint8_t {
  kPdfDirac = 0,
  kPdfUniform = 1,
  kPdfNormal = 2,
  kPdfExponential = 3,
  kPdfDiscrete = 4,
};

/// Smallest normal half-width (in sigmas) a reader accepts: well below it,
/// 2*Phi(c) - 1 underflows to exactly 0 and the truncated-variance formula
/// would silently produce -inf from a corrupt file.
inline constexpr double kMinNormalHalfWidth = 1e-12;

/// Tolerance on a stored discrete weight sum: the writer persists
/// normalized weights, so any legitimate file sums to 1 within a few ulps.
inline constexpr double kWeightSumTolerance = 1e-6;

}  // namespace uclust::io

#endif  // UCLUST_IO_BINARY_FORMAT_H_
