#include "service/dataset_registry.h"

#include <string_view>
#include <utility>

#include "io/chunked_sidecar.h"
#include "io/dataset_reader.h"
#include "io/ingest.h"
#include "service/log.h"

namespace uclust::service {

namespace {

bool HasSuffix(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

const char* MomentCacheUseName(MomentCacheUse use) {
  switch (use) {
    case MomentCacheUse::kNone: return "none";
    case MomentCacheUse::kHit: return "hit";
    case MomentCacheUse::kFill: return "fill";
  }
  return "unknown";
}

common::Result<DatasetInfo> DatasetRegistry::Register(
    const std::string& path, const std::string& moments_path,
    const std::string& samples_path) {
  if (path.empty()) {
    return common::Status::InvalidArgument("registry: dataset path is empty");
  }
  if (!moments_path.empty() && !HasSuffix(moments_path, ".umom")) {
    return common::Status::InvalidArgument(
        "registry: moments path must end in .umom: " + moments_path);
  }
  if (!samples_path.empty() && !HasSuffix(samples_path, ".usmp")) {
    return common::Status::InvalidArgument(
        "registry: samples path must end in .usmp: " + samples_path);
  }

  // Validate the header before taking the lock — Open() touches the disk.
  io::BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path));

  std::lock_guard<std::mutex> lock(mu_);
  for (DatasetInfo& existing : datasets_) {
    if (existing.path == path) {
      if (!moments_path.empty()) existing.moments_path = moments_path;
      if (!samples_path.empty()) existing.samples_path = samples_path;
      return existing;
    }
  }
  DatasetInfo info;
  info.id = "ds-" + std::to_string(datasets_.size() + 1);
  info.path = path;
  info.name = reader.name();
  info.n = reader.size();
  info.m = reader.dims();
  info.num_classes = reader.num_classes();
  info.has_labels = reader.has_labels();
  info.file_bytes = reader.file_bytes();
  info.moments_path = moments_path;
  info.samples_path = samples_path;
  datasets_.push_back(info);
  LogEvent("dataset_registered", {{"dataset", info.id},
                                  {"path", info.path},
                                  {"n", std::to_string(info.n)},
                                  {"m", std::to_string(info.m)}});
  return info;
}

common::Result<DatasetInfo> DatasetRegistry::Get(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const DatasetInfo& info : datasets_) {
    if (info.id == id) return info;
  }
  return common::Status::NotFound("registry: unknown dataset id: " + id);
}

std::vector<DatasetInfo> DatasetRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  return datasets_;
}

std::size_t DatasetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return datasets_.size();
}

common::Result<std::shared_ptr<const uncertain::MomentStore>>
DatasetRegistry::MomentsFor(const std::string& id, MomentCacheUse* use) const {
  common::Result<DatasetInfo> info = Get(id);
  UCLUST_RETURN_NOT_OK(info.status());
  const std::string& path = info.ValueOrDie().path;
  // Revalidate outside the lock: describing the file touches the disk. The
  // triple is taken before any decode, so a rewrite that lands after this
  // point leaves an entry older than its bytes, which the next lookup
  // reports as stale, never the reverse.
  common::Result<io::SidecarSource> source = io::DescribeSource(path);
  UCLUST_RETURN_NOT_OK(source.status());

  std::unique_lock<std::mutex> lock(cache_mu_);
  CacheEntry& entry = cache_[id];  // map nodes stay put while unlocked
  // Another lookup decoding this dataset fills the entry for us too.
  cache_cv_.wait(lock, [&entry] { return !entry.filling; });
  if (entry.store != nullptr && entry.source == source.ValueOrDie()) {
    ++cache_stats_.hits;
    if (use != nullptr) *use = MomentCacheUse::kHit;
    return entry.store;
  }
  if (entry.store != nullptr) {
    // Stale: drop the cache's reference. Jobs holding it keep theirs.
    --cache_stats_.entries;
    cache_stats_.bytes -= entry.store->moment_bytes_resident();
    ++cache_stats_.invalidations;
    entry.store.reset();
  }
  entry.filling = true;
  lock.unlock();
  // The budget-free serial engine always decodes resident columns.
  common::Result<uncertain::MomentStorePtr> decoded =
      io::StreamMomentStoreFromFile(path);
  lock.lock();
  entry.filling = false;
  cache_cv_.notify_all();
  UCLUST_RETURN_NOT_OK(decoded.status());
  entry.store = std::move(decoded).ValueOrDie();
  entry.source = source.ValueOrDie();
  ++cache_stats_.entries;
  cache_stats_.bytes += entry.store->moment_bytes_resident();
  ++cache_stats_.fills;
  if (use != nullptr) *use = MomentCacheUse::kFill;
  return entry.store;
}

MomentCacheStats DatasetRegistry::moment_cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_stats_;
}

}  // namespace uclust::service
