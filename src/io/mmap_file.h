// Minimal read-only memory-mapping wrapper with a graceful heap fallback.
//
// MapFileRegion maps one byte window [offset, offset + length) of a file
// with mmap (page-aligning the request internally and issuing an
// madvise(WILLNEED) prefetch for the window). When the mmap call fails at
// runtime it degrades to a heap buffer filled by positional reads,
// preserving the exact same bytes at the cost of losing OS-managed
// eviction. Callers can tell which mode they got via MappedRegion::mapped().
//
// Thread-safety: MapFileRegion is safe to call concurrently on the same
// open file descriptor (mmap and pread take explicit offsets).
#ifndef UCLUST_IO_MMAP_FILE_H_
#define UCLUST_IO_MMAP_FILE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace uclust::io {

/// One read-only byte window of a file. Movable; releases the mapping (or
/// frees the fallback buffer) on destruction.
class MappedRegion {
 public:
  MappedRegion() = default;
  ~MappedRegion();

  MappedRegion(MappedRegion&& other) noexcept { *this = std::move(other); }
  MappedRegion& operator=(MappedRegion&& other) noexcept;
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  /// First byte of the requested window (NOT the page-aligned mapping base).
  const unsigned char* data() const { return base_ + lead_; }
  /// Bytes in the window.
  std::size_t size() const { return size_; }
  /// True when a window is held.
  bool valid() const { return base_ != nullptr; }
  /// True for a real mmap mapping, false for the heap fallback.
  bool mapped() const { return mapped_; }

 private:
  friend common::Result<MappedRegion> MapFileRegion(int fd,
                                                    const std::string& path,
                                                    std::uint64_t offset,
                                                    std::size_t length);
  void Release();

  unsigned char* base_ = nullptr;  // mapping base (page aligned) or heap buf
  std::size_t map_bytes_ = 0;      // bytes to unmap (0 for the heap fallback)
  std::size_t lead_ = 0;           // offset - page_floor(offset)
  std::size_t size_ = 0;
  bool mapped_ = false;
};

/// Maps [offset, offset + length) of the file open as `fd` (the descriptor
/// may be shared across threads); `path` only names the file in errors.
common::Result<MappedRegion> MapFileRegion(int fd, const std::string& path,
                                           std::uint64_t offset,
                                           std::size_t length);

/// Fills `dst` with the `length` bytes at `offset` of the file open as `fd`,
/// by pread (thread-safe on a shared descriptor); `path` only names the
/// file in errors.
common::Status ReadExact(int fd, const std::string& path,
                         std::uint64_t offset, std::size_t length,
                         unsigned char* dst);

/// Last-write time of `path` in filesystem-clock ticks (an opaque,
/// machine-stable unit; 0 when the file or timestamp is unavailable). Part
/// of the moment-sidecar staleness guard, so only equality on the same
/// machine is meaningful.
std::uint64_t FileMTimeTicks(const std::string& path);

/// FNV-1a hash over the first and last 4 KiB of `path` plus its byte size
/// (0 when the file is unreadable). The content part of the sidecar
/// staleness guard: two files of identical size written within one
/// mtime tick still differ here unless their probed bytes match.
std::uint64_t FileProbeHash(const std::string& path);

/// Process-unique token for scratch-file names (the pid), so two processes
/// sharing a directory still produce distinct generated names.
std::uint64_t ProcessUniqueToken();

/// A sibling scratch path `<path>.tmp-<token>-<counter>`, unique per
/// (process, call). Sidecar rebuilds write here and rename into place on
/// success: concurrent rebuilds of one sidecar may race the rename (equal
/// parameters produce identical bytes, so last-wins is harmless) but must
/// never interleave writes into one shared tmp inode — a mixed file has
/// exactly the expected size and a clean header, so it passes validation
/// while serving wrong bytes.
std::string UniqueScratchSiblingPath(const std::string& path);

}  // namespace uclust::io

#endif  // UCLUST_IO_MMAP_FILE_H_
