// On-disk layout of the uclust sample sidecar format (".usmp").
//
// A .usmp file persists one dataset's Monte-Carlo realizations — the exact
// bytes the per-object rng sub-streams produce (common::DeriveSeed(seed, i),
// see uncertain/sample_store.h) — so the Mapped SampleStore backend can serve
// them through mmap without ever materializing the O(n S m) sample block in
// heap memory. The layout is chunked: objects are grouped into fixed-size
// chunks (a power of two) so a consumer can map, prefetch, and evict
// chunk-granular windows while the OS pages the data in and out.
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     8  magic "uclustsm"
//        8     4  u32 endian tag 0x01020304 (readers reject byte-swapped
//                 files instead of silently mis-parsing them)
//       12     4  u32 format version (kSampleFormatVersion; readers reject
//                 newer)
//       16     8  u64 n — number of objects (patched on Finish())
//       24     8  u64 m — dimensionality
//       32     8  u64 samples_per_object — realizations S per object
//       40     8  u64 chunk_rows — objects per chunk (power of two)
//       48     8  u64 seed — the master seed the per-object sub-streams were
//                 derived from. Part of the reuse guard: a sidecar drawn
//                 with a different seed (or a different S) is not the
//                 artifact a consumer asked for, even over the same dataset
//       56     8  u64 source_size — byte size of the .ubin dataset this
//                 sidecar was derived from (0 = standalone)
//       64     8  u64 source_mtime — the dataset's last-write time in
//                 filesystem-clock ticks (io::FileMTimeTicks; 0 = unknown)
//       72     8  u64 source_probe — FNV-1a over the dataset's first and
//                 last 4 KiB plus its size (io::FileProbeHash; 0 = unknown).
//                 size + mtime + probe form the staleness guard for sidecar
//                 reuse, exactly as in the .umom format
//       80    16  reserved (zero)
//       96     -  ceil(n / chunk_rows) chunks back to back
//
// Chunk c covers objects [c * chunk_rows, min(n, (c+1) * chunk_rows)); with
// r = objects in the chunk, its payload is r back-to-back object rows of
// S * m f64 each (object-major, then sample, then dimension — the same
// layout SampleView::ObjectSamples spans). Every chunk offset and every row
// offset is 8-byte aligned and the total file size is exactly
// kSampleHeaderBytes + n * S * m * 8 — which readers verify, rejecting
// truncated or padded files. All integers are little-endian; all reals are
// IEEE-754 binary64. Version history: 1 = initial layout.
#ifndef UCLUST_IO_SAMPLE_FORMAT_H_
#define UCLUST_IO_SAMPLE_FORMAT_H_

#include <climits>
#include <cstddef>
#include <cstdint>

#include "io/chunked_sidecar.h"

namespace uclust::io {

/// Current (and only) sample-sidecar format version.
inline constexpr uint32_t kSampleFormatVersion = 1;

/// Total bytes of the fixed header (chunks follow immediately after).
inline constexpr std::size_t kSampleHeaderBytes = 96;

/// Default objects per chunk when no explicit chunk hint is given. A sample
/// row is S * m doubles — an order of magnitude wider than a moment row —
/// so the default is proportionally smaller than the .umom one: at S = 32,
/// m = 64 a chunk is ~8 MiB.
inline constexpr std::size_t kDefaultSampleChunkRows = 512;

/// The table above as a chunked-sidecar layout: fields S (in [1, INT_MAX])
/// and seed, rows of S * m doubles, budget-derived chunks of at least 16
/// rows (4x below the moment floor, since a sample row is S times wider).
inline constexpr SidecarLayout kSampleLayout = {
    .magic = {'u', 'c', 'l', 'u', 's', 't', 's', 'm'},
    .kind = "sample",
    .version = kSampleFormatVersion,
    .header_bytes = kSampleHeaderBytes,
    .chunk_rows_offset = 40,
    .source_offset = 56,
    .fields = {{{32, "samples_per_object", 1, INT_MAX},
                {48, "seed", 0, UINT64_MAX}}},
    .num_fields = 2,
    .row_width = 0,
    .row_width_field = 0,
    .row_pad = 0,
    .default_chunk_rows = kDefaultSampleChunkRows,
    .budget_floor_rows = 16,
    .window_pool = 1,
};

}  // namespace uclust::io

#endif  // UCLUST_IO_SAMPLE_FORMAT_H_
