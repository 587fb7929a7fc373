// On-disk layout of the uclust moment sidecar format (".umom").
//
// A .umom file persists one dataset's packed moment statistics — the exact
// bytes MomentMatrix::PackRow produces — so the Mapped MomentStore backend
// can serve them through mmap without ever materializing the O(n m) columns
// in heap memory. The layout is chunked: rows are grouped into fixed-size
// chunks (a power of two) so a consumer can map, prefetch, and evict
// chunk-granular windows while the OS pages the data in and out.
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     8  magic "uclustmm"
//        8     4  u32 endian tag 0x01020304 (readers reject byte-swapped
//                 files instead of silently mis-parsing them)
//       12     4  u32 format version (kMomentFormatVersion; readers reject
//                 newer)
//       16     8  u64 n — number of objects (patched on Finish())
//       24     8  u64 m — dimensionality
//       32     8  u64 chunk_rows — rows per chunk (power of two)
//       40     8  u64 source_size — byte size of the .ubin dataset this
//                 sidecar was derived from (0 = standalone)
//       48     8  u64 source_mtime — the dataset's last-write time in
//                 filesystem-clock ticks (io::FileMTimeTicks; 0 = unknown)
//       56     8  u64 source_probe — FNV-1a over the dataset's first and
//                 last 4 KiB plus its size (io::FileProbeHash; 0 = unknown).
//                 size + mtime + probe form the staleness guard for sidecar
//                 reuse: the probe catches in-place regenerations that
//                 reproduce both the byte count and the mtime tick (record
//                 payloads and the labels column differ, so the probed
//                 bytes differ)
//       64     -  ceil(n / chunk_rows) chunks back to back
//
// Chunk c covers rows [c * chunk_rows, min(n, (c+1) * chunk_rows)); with
// r = rows in the chunk, its payload is four back-to-back columns:
//
//   mean       r * m f64   (row-major)
//   mu2        r * m f64
//   var        r * m f64
//   total_var  r     f64
//
// so every chunk offset and every column offset is 8-byte aligned and the
// total file size is exactly kMomentHeaderBytes + (3 n m + n) * 8 — which
// readers verify, rejecting truncated or padded files. All integers are
// little-endian; all reals are IEEE-754 binary64. Version history:
// 1 = initial layout.
#ifndef UCLUST_IO_MOMENT_FORMAT_H_
#define UCLUST_IO_MOMENT_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "io/chunked_sidecar.h"

namespace uclust::io {

/// Current (and only) moment-sidecar format version.
inline constexpr uint32_t kMomentFormatVersion = 1;

/// Total bytes of the fixed header (chunks follow immediately after).
inline constexpr std::size_t kMomentHeaderBytes = 64;

/// Default rows per chunk when no explicit chunk hint is given. At m = 64
/// a chunk is ~6.3 MiB; small enough to page in and out, large enough that
/// chunk-lookup overhead vanishes against the per-row compute.
inline constexpr std::size_t kDefaultMomentChunkRows = 4096;

/// The table above as a chunked-sidecar layout: no format fields, rows of
/// 3m + 1 doubles, budget-derived chunks of at least 64 rows.
inline constexpr SidecarLayout kMomentLayout = {
    .magic = {'u', 'c', 'l', 'u', 's', 't', 'm', 'm'},
    .kind = "moment",
    .version = kMomentFormatVersion,
    .header_bytes = kMomentHeaderBytes,
    .chunk_rows_offset = 32,
    .source_offset = 40,
    .fields = {},
    .num_fields = 0,
    .row_width = 3,
    .row_width_field = -1,
    .row_pad = 1,
    .default_chunk_rows = kDefaultMomentChunkRows,
    .budget_floor_rows = 64,
    .window_pool = 0,
};

}  // namespace uclust::io

#endif  // UCLUST_IO_MOMENT_FORMAT_H_
