// Dataset registry: the service's catalog of clusterable inputs. Clients
// register a binary dataset file (`.ubin`, the dataset_gen / binary_format
// layout) by path; the registry validates the header up front (magic,
// endianness, version — via io::BinaryDatasetReader::Open) and hands back a
// stable id ("ds-1", "ds-2", ...) that job specs reference. Re-registering
// the same canonical path returns the existing id rather than a duplicate.
//
// A registration may also carry a `.umom` moment sidecar path and/or a
// `.usmp` sample sidecar path; jobs that stream moments pass the former as
// io::StreamMomentStoreFromFile's sidecar path, and sampled jobs pass the
// latter through the dataset's samples annotation into io::MakeSampleStore —
// so the staleness guards (n, m, byte size, mtime, content probe; plus
// samples-per-object and seed for samples) decide reuse-vs-rebuild exactly
// as the CLI tools do.
//
// The registry also keeps each dataset's decoded-moment cache entry: one
// resident MomentStore ((3m + 1) * n doubles, the offline phase of every
// centroid algorithm) that UCPC, MMVar and UK-means / CK-means jobs run
// on, decoded on the first lookup and shared by every later job while the
// file's source triple (byte size, mtime, content probe) is unchanged.
// Registration never decodes.
#ifndef UCLUST_SERVICE_DATASET_REGISTRY_H_
#define UCLUST_SERVICE_DATASET_REGISTRY_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/chunked_sidecar.h"
#include "uncertain/moment_store.h"

namespace uclust::service {

/// Everything the service knows about one registered dataset.
struct DatasetInfo {
  std::string id;            // "ds-1"
  std::string path;          // as registered
  std::string name;          // dataset name stored in the file header
  std::size_t n = 0;         // objects
  std::size_t m = 0;         // dimensions
  int num_classes = 0;       // 0 when unlabeled
  bool has_labels = false;
  std::uint64_t file_bytes = 0;
  std::string moments_path;  // optional .umom sidecar ("" = none)
  std::string samples_path;  // optional .usmp sidecar ("" = none)
};

/// How a job got its moments: from the cache, by filling it, or not
/// through the cache at all.
enum class MomentCacheUse { kNone, kHit, kFill };

/// "none" / "hit" / "fill" — the job_finish log's moment_cache value.
const char* MomentCacheUseName(MomentCacheUse use);

/// The decoded-moment cache's counters (GET /v1/metrics "moment_cache").
struct MomentCacheStats {
  std::size_t entries = 0;  ///< gauge: datasets holding a moment store
  std::size_t bytes = 0;    ///< gauge: the moment bytes of those
  std::uint64_t hits = 0;
  std::uint64_t fills = 0;
  std::uint64_t invalidations = 0;  ///< stale entries replaced
};

/// Thread-safe id -> DatasetInfo catalog. Ids are process-lifetime stable;
/// there is no unregister (jobs may hold an id across their whole queue
/// wait, and the catalog is tiny next to the datasets themselves).
class DatasetRegistry {
 public:
  /// Validates `path`'s header and registers it. `moments_path` (optional)
  /// must end in ".umom" and `samples_path` (optional) in ".usmp" if given;
  /// both are recorded, not opened — the sidecar guards run when a job
  /// actually streams them. Registering an already-registered path updates
  /// the given sidecar paths and returns the existing entry.
  common::Result<DatasetInfo> Register(const std::string& path,
                                       const std::string& moments_path = "",
                                       const std::string& samples_path = "");

  /// Looks up an id. kNotFound with the id echoed when absent.
  common::Result<DatasetInfo> Get(const std::string& id) const;

  /// Snapshot of every registration, in id order.
  std::vector<DatasetInfo> List() const;

  std::size_t size() const;

  /// The resident moment store of dataset `id`, decoded at most once per
  /// source triple. Every lookup re-describes the file; an entry whose
  /// triple differs is stale and replaced, while jobs that already hold it
  /// keep their snapshot. Concurrent lookups that find no valid entry wait
  /// for a single decode. `use` (optional) receives kHit or kFill.
  /// Logically const: the catalog never changes.
  common::Result<std::shared_ptr<const uncertain::MomentStore>> MomentsFor(
      const std::string& id, MomentCacheUse* use = nullptr) const;

  MomentCacheStats moment_cache_stats() const;

 private:
  struct CacheEntry {
    std::shared_ptr<const uncertain::MomentStore> store;
    io::SidecarSource source;  // described before the decode began
    bool filling = false;  // a lookup is decoding this dataset right now
  };

  mutable std::mutex mu_;
  std::vector<DatasetInfo> datasets_;  // index i holds "ds-(i+1)"

  // The decoded-moment cache, under its own lock so that a decode never
  // blocks the catalog.
  mutable std::mutex cache_mu_;
  mutable std::condition_variable cache_cv_;  // a fill finished
  mutable std::map<std::string, CacheEntry> cache_;  // by dataset id
  mutable MomentCacheStats cache_stats_;
};

}  // namespace uclust::service

#endif  // UCLUST_SERVICE_DATASET_REGISTRY_H_
