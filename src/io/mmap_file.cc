#include "io/mmap_file.h"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

namespace uclust::io {

common::Status ReadExact(int fd, const std::string& path,
                         std::uint64_t offset, std::size_t length,
                         unsigned char* dst) {
  std::size_t done = 0;
  while (done < length) {
    const ssize_t got = ::pread(fd, dst + done, length - done,
                                static_cast<off_t>(offset + done));
    if (got <= 0) {
      return common::Status::IOError(path + ": short read at offset " +
                                     std::to_string(offset + done));
    }
    done += static_cast<std::size_t>(got);
  }
  return common::Status::Ok();
}

MappedRegion::~MappedRegion() { Release(); }

MappedRegion& MappedRegion::operator=(MappedRegion&& other) noexcept {
  if (this != &other) {
    Release();
    base_ = std::exchange(other.base_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    lead_ = std::exchange(other.lead_, 0);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

void MappedRegion::Release() {
  if (base_ == nullptr) return;
  if (mapped_) {
    ::munmap(base_, map_bytes_);
  } else {
    std::free(base_);
  }
  base_ = nullptr;
  mapped_ = false;
}

std::uint64_t FileMTimeTicks(const std::string& path) {
  std::error_code ec;
  const auto t = std::filesystem::last_write_time(path, ec);
  if (ec) return 0;
  return static_cast<std::uint64_t>(t.time_since_epoch().count());
}

std::uint64_t FileProbeHash(const std::string& path) {
  std::error_code ec;
  const std::uint64_t size =
      static_cast<std::uint64_t>(std::filesystem::file_size(path, ec));
  if (ec) return 0;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return 0;
  constexpr std::size_t kProbeBytes = 4096;
  char head[kProbeBytes];
  char tail[kProbeBytes];
  in.read(head, static_cast<std::streamsize>(std::min<std::uint64_t>(
                    kProbeBytes, size)));
  const std::size_t head_len = static_cast<std::size_t>(in.gcount());
  std::size_t tail_len = 0;
  if (size > kProbeBytes) {
    in.clear();
    in.seekg(static_cast<std::streamoff>(size - kProbeBytes));
    in.read(tail, kProbeBytes);
    tail_len = static_cast<std::size_t>(in.gcount());
  }
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const char* data, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 1099511628211ull;
    }
  };
  mix(reinterpret_cast<const char*>(&size), sizeof(size));
  mix(head, head_len);
  mix(tail, tail_len);
  return h;
}

std::uint64_t ProcessUniqueToken() {
  return static_cast<std::uint64_t>(::getpid());
}

std::string UniqueScratchSiblingPath(const std::string& path) {
  static std::atomic<std::uint64_t> next{1};
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".tmp-%llx-%llu",
                static_cast<unsigned long long>(ProcessUniqueToken()),
                static_cast<unsigned long long>(
                    next.fetch_add(1, std::memory_order_relaxed)));
  return path + suffix;
}

common::Result<MappedRegion> MapFileRegion(int fd, const std::string& path,
                                           std::uint64_t offset,
                                           std::size_t length) {
  MappedRegion region;
  region.size_ = length;
  if (length == 0) return region;
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t aligned = offset - offset % page;
  const std::size_t lead = static_cast<std::size_t>(offset - aligned);
  const std::size_t map_bytes = lead + length;
  void* base = ::mmap(nullptr, map_bytes, PROT_READ, MAP_PRIVATE, fd,
                      static_cast<off_t>(aligned));
  if (base != MAP_FAILED) {
    // Chunk-granular prefetch: tell the OS the whole window is about to be
    // read so it can page it in ahead of the first access.
    ::madvise(base, map_bytes, MADV_WILLNEED);
    region.base_ = static_cast<unsigned char*>(base);
    region.map_bytes_ = map_bytes;
    region.lead_ = lead;
    region.mapped_ = true;
    return region;
  }
  // Fall through to the heap path: an mmap failure (e.g. ENOMEM under an
  // address-space cap, or an unmappable file system) degrades gracefully.
  unsigned char* buf = static_cast<unsigned char*>(std::malloc(length));
  if (buf == nullptr) {
    return common::Status::IOError(path + ": cannot allocate " +
                                   std::to_string(length) +
                                   " bytes for the unmapped region fallback");
  }
  const common::Status st = ReadExact(fd, path, offset, length, buf);
  if (!st.ok()) {
    std::free(buf);
    return st;
  }
  region.base_ = buf;
  region.lead_ = 0;
  region.mapped_ = false;
  return region;
}

}  // namespace uclust::io
