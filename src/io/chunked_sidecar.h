// The chunked-sidecar core shared by the .umom moment and .usmp sample
// formats (byte layouts in moment_format.h and sample_format.h). Both are a
// fixed header — magic, endian canary, version, n, m, a power-of-two
// chunk_rows, the format's own u64 fields, the source size/mtime/probe
// triple — followed by ceil(n / chunk_rows) chunks of fixed-width rows. A
// SidecarLayout says where one format keeps what; the header validator, the
// streaming writer, the temp-and-rename commit, the mapped reader with its
// per-thread window LRU, the budget-derived chunk size and the reuse
// decision exist once, here. moment_file.h and sample_file.h are thin
// layers that only know their own layout.
#ifndef UCLUST_IO_CHUNKED_SIDECAR_H_
#define UCLUST_IO_CHUNKED_SIDECAR_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/mmap_file.h"

namespace uclust::io {

/// Mapped chunk windows each thread keeps alive per window pool. Spans served
/// by a chunked view stay valid until the calling thread faults this many
/// OTHER chunks of the same pool; every kernel in the library holds at most
/// two distinct rows at a time (see uncertain/moments.h and
/// uncertain/sample_store.h).
inline constexpr std::size_t kSidecarWindowSlots = 16;

/// Separate per-thread window pools: moment and sample chunks have very
/// different sizes, and one workload faulting both must not let the wider
/// sample rows evict a moment store's whole working set.
inline constexpr int kSidecarWindowPools = 2;

/// Most format-specific u64 header fields a layout may declare.
inline constexpr std::size_t kMaxSidecarFields = 2;

/// One format-specific u64 header field and its valid range.
struct SidecarField {
  std::size_t offset = 0;
  const char* name = "";
  uint64_t min = 0;
  uint64_t max = UINT64_MAX;
};

/// Where one chunked-sidecar format keeps what. Every layout shares the
/// first 32 bytes: magic (8), u32 endian tag at 8, u32 version at 12, u64 n
/// at 16, u64 m at 24. Bytes of the header no field names are zero.
struct SidecarLayout {
  char magic[8];
  const char* kind;  ///< "moment" / "sample" (error messages)
  uint32_t version;
  std::size_t header_bytes;
  std::size_t chunk_rows_offset;
  std::size_t source_offset;  ///< u64 size, mtime, probe back to back
  std::array<SidecarField, kMaxSidecarFields> fields;
  std::size_t num_fields;
  /// A row is m * width + row_pad doubles, where width is row_width or, when
  /// row_width_field >= 0, the value of that field.
  uint64_t row_width;
  int row_width_field;
  uint64_t row_pad;
  std::size_t default_chunk_rows;
  /// Smallest chunk the budget derivation picks.
  std::size_t budget_floor_rows;
  int window_pool;  ///< in [0, kSidecarWindowPools)
};

/// The staleness triple of a source dataset file: byte size, FileMTimeTicks
/// and FileProbeHash (all 0 = standalone/unknown).
struct SidecarSource {
  uint64_t size = 0;
  uint64_t mtime = 0;
  uint64_t probe = 0;
  bool operator==(const SidecarSource&) const = default;
};

/// Header metadata of one sidecar file.
struct SidecarInfo {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t chunk_rows = 0;
  std::array<uint64_t, kMaxSidecarFields> fields{};  ///< the layout's fields
  SidecarSource source;
};

/// Normalizes a chunk-rows hint to the format's constraint: 0 becomes the
/// layout's default, everything else is rounded up to the next power of two
/// (clamped to [1, 2^20]).
std::size_t NormalizeChunkRows(const SidecarLayout& layout, std::size_t hint);

/// Payload bytes of one row of `info`'s shape (the header must be valid).
uint64_t SidecarRowBytes(const SidecarLayout& layout, const SidecarInfo& info);

/// The staleness triple of `dataset_path`.
common::Result<SidecarSource> DescribeSource(const std::string& dataset_path);

/// Reads and validates a sidecar header: magic, endian canary, version,
/// m > 0, every field in range, power-of-two chunk_rows, and the
/// overflow-safe exact physical size (truncated and padded files fail).
common::Result<SidecarInfo> ReadSidecarInfo(const SidecarLayout& layout,
                                            const std::string& path);

/// The reuse decision: `path` holds a valid sidecar with `want`'s n, m,
/// fields and source triple, whose chunks are no larger than the normalized
/// `chunk_requirement` (0 = any). The source triple is the staleness guard:
/// a dataset regenerated in place often reproduces the exact byte count
/// (fixed-size records) and can land in the same mtime tick on coarse
/// filesystems, but its content probe still differs. Larger chunks would
/// blow the window-memory bound the requirement was sized for; smaller ones
/// only cost extra faults.
bool SidecarReusable(const SidecarLayout& layout, const std::string& path,
                     const SidecarInfo& want, std::size_t chunk_requirement);

/// Chunk rows of a mapped store under a memory budget: sized so the window
/// caches themselves respect the budget that forced the Mapped backend —
/// every thread keeps up to kSidecarWindowSlots windows alive, so threads x
/// slots x chunk bytes must fit. Floored to a power of two, clamped to
/// [budget_floor_rows, default_chunk_rows]. 0 (no budget) = no requirement,
/// which writers read as the format default. Both store factories and
/// `dataset_gen --emit-moments/--emit-samples` size their sidecars here, so
/// an emitted sidecar is the one a run under the same budget and threads
/// reuses.
std::size_t SidecarChunkRequirement(const SidecarLayout& layout,
                                    std::size_t budget_bytes, int threads,
                                    std::size_t row_bytes);

/// Runs `build` on a unique temp sibling of `sidecar_path`
/// (UniqueScratchSiblingPath) and renames the result into place only on
/// success. A failed rebuild never destroys a previously valid sidecar,
/// concurrent rebuilds never interleave into one temp inode, and a reader
/// serving windows from the old file keeps its inode.
common::Status CommitSidecarBuild(
    const std::string& sidecar_path,
    const std::function<common::Status(const std::string& tmp_path)>& build);

/// Streams rows into one sidecar through a one-chunk buffer. A row is a
/// fixed list of columns; inside a chunk of r rows each column's r values
/// are stored back to back, column after column. Usage: Open() once,
/// AppendRows() any number of times, Finish() (which seals n; a file without
/// Finish() is invalid).
class SidecarWriter {
 public:
  /// Creates/truncates `path` and writes the provisional header from
  /// `header` (n is patched by Finish; chunk_rows is a hint, normalized
  /// here). `column_widths` gives each column's doubles per row.
  common::Status Open(const SidecarLayout& layout, const std::string& path,
                      const SidecarInfo& header,
                      std::vector<std::size_t> column_widths);

  /// Appends `count` rows: the c-th pointer holds count x column_widths[c]
  /// doubles.
  common::Status AppendRows(std::size_t count,
                            std::initializer_list<const double*> columns);

  /// Flushes the partial tail chunk, patches n into the header, and closes
  /// the file.
  common::Status Finish();

  /// Rows appended so far.
  std::size_t written() const { return written_; }

 private:
  common::Status Fail(const std::string& msg);
  common::Status FlushChunk();

  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  const SidecarLayout* layout_ = nullptr;
  std::unique_ptr<std::FILE, Closer> file_;
  std::string path_;
  std::vector<std::size_t> widths_;
  std::size_t chunk_rows_ = 0;
  std::size_t written_ = 0;
  std::size_t buf_rows_ = 0;  // rows accumulated in the pending chunk
  std::vector<double> buf_;   // column c at chunk_rows_ * (widths before c)
};

// Cross-thread window accounting, shared with the per-thread slots so that
// evictions outliving the store still decrement safely.
struct WindowCounters {
  std::atomic<std::size_t> bytes{0};
  std::atomic<std::size_t> peak{0};
  std::atomic<std::size_t> mmap_windows{0};
};

struct WindowSlot {
  uint64_t serial = 0;  // 0 = empty
  std::size_t chunk = 0;
  uint64_t tick = 0;
  MappedRegion region;
  std::shared_ptr<WindowCounters> counters;
};

// One thread's LRU of mapped chunk windows for one pool, shared by every
// live store of that pool (keyed by store serial + chunk index), so total
// address use stays bounded by kSidecarWindowSlots x chunk bytes per thread
// no matter how many stores come and go; windows of destroyed stores age
// out under normal LRU pressure.
struct WindowCache {
  std::array<WindowSlot, kSidecarWindowSlots> slots;
  uint64_t tick = 0;

  static void Drop(WindowSlot* s);
  ~WindowCache();
};

inline WindowCache& LocalWindows(int pool) {
  thread_local std::array<WindowCache, kSidecarWindowPools> pools;
  return pools[static_cast<std::size_t>(pool)];
}

/// The mapped reader: one validated sidecar served through chunk-granular
/// windows. Thread-safe for concurrent Chunk() calls (each thread owns its
/// window LRU).
class MappedSidecar {
 public:
  MappedSidecar() = default;
  ~MappedSidecar();

  MappedSidecar(const MappedSidecar&) = delete;
  MappedSidecar& operator=(const MappedSidecar&) = delete;

  /// Opens `path`, then validates the header through that same descriptor
  /// (pread + fstat), so the geometry checked is the geometry served.
  common::Status Open(const SidecarLayout& layout, const std::string& path);

  const SidecarInfo& info() const { return info_; }
  const std::string& path() const { return path_; }

  std::size_t RowsInChunk(std::size_t chunk) const {
    return std::min(info_.chunk_rows, info_.n - chunk * info_.chunk_rows);
  }

  /// Peak bytes of chunk windows mapped simultaneously across all threads.
  std::size_t peak_bytes() const {
    return counters_->peak.load(std::memory_order_relaxed);
  }
  /// True when at least one window came from a real mmap (false means every
  /// window so far used the heap-read fallback).
  bool used_mmap() const {
    return counters_->mmap_windows.load(std::memory_order_relaxed) > 0;
  }

  /// First payload double of chunk `chunk`: a hit is one scan of the
  /// thread's window slots; a miss evicts the least-recently-used window and
  /// maps the chunk.
  const double* Chunk(std::size_t chunk) const {
    WindowCache& wc = LocalWindows(pool_);
    ++wc.tick;
    WindowSlot* victim = &wc.slots[0];
    for (auto& s : wc.slots) {
      if (s.serial == serial_ && s.chunk == chunk && s.region.valid()) {
        s.tick = wc.tick;
        return reinterpret_cast<const double*>(s.region.data());
      }
      if (s.tick < victim->tick) victim = &s;
    }
    return Fault(chunk, victim, wc.tick);
  }

 private:
  const double* Fault(std::size_t chunk, WindowSlot* victim,
                      uint64_t tick) const;

  const SidecarLayout* layout_ = nullptr;
  int pool_ = 0;  // layout_->window_pool, one load closer to the hit path
  std::string path_;
  int fd_ = -1;  // the open file; every window is mapped or read from it
  SidecarInfo info_;
  uint64_t row_bytes_ = 0;
  uint64_t serial_ = 0;  // unique per store; keys the thread-local windows
  std::shared_ptr<WindowCounters> counters_ =
      std::make_shared<WindowCounters>();
};

}  // namespace uclust::io

#endif  // UCLUST_IO_CHUNKED_SIDECAR_H_
