// The MomentStore abstraction: ownership backends behind the MomentView
// span interface.
//
// After streaming ingestion (PR 3) and memory-budgeted pairwise tables
// (PR 2), the O(n m) moment columns were the last all-in-RAM artifact of the
// clustering stack. A MomentStore decouples how the moment statistics are
// OWNED from how kernels READ them (always through MomentView):
//
//   kResident — today's flat std::vector columns (a MomentMatrix); the
//               default, zero-copy spans, no per-access indirection;
//   kMapped   — moment columns persisted to a versioned, endianness-checked
//               .umom sidecar file and served chunk-by-chunk through mmap
//               windows (io::MappedMomentStore), so datasets whose moment
//               columns exceed RAM — or the configured
//               EngineConfig::memory_budget_bytes — still cluster.
//
// Invariant: both backends serve bit-identical doubles (the bytes come from
// the same canonical MomentMatrix::PackRow packing), so every clustering
// built on a store is identical across backends, thread counts, and batch
// sizes — only memory and I/O cost change (tests/test_moment_store.cc).
//
// Layering: this header owns the interface and the Resident backend; the
// Mapped backend and the backend-selecting factory live in src/io
// (moment_file.h / ingest.h) because they need the file format and mmap.
#ifndef UCLUST_UNCERTAIN_MOMENT_STORE_H_
#define UCLUST_UNCERTAIN_MOMENT_STORE_H_

#include <memory>
#include <string>

#include "uncertain/moments.h"

namespace uclust::uncertain {

/// Storage policy of a MomentStore.
enum class MomentBackend { kResident, kMapped };

/// Lower-case display name ("resident", "mapped").
std::string MomentBackendName(MomentBackend backend);

/// One dataset's moment statistics behind an ownership backend.
class MomentStore {
 public:
  virtual ~MomentStore();

  /// The storage policy in effect.
  virtual MomentBackend backend() const = 0;
  /// Span-returning view every kernel consumes. Cheap; valid while the store
  /// is alive.
  virtual MomentView view() const = 0;
  /// Bytes of moment storage pinned in process memory: the full columns for
  /// the Resident backend, the peak bytes of simultaneously mapped chunk
  /// windows for the Mapped backend.
  virtual std::size_t moment_bytes_resident() const = 0;
  /// Path of the .umom sidecar backing the store ("" for Resident).
  virtual const std::string& sidecar_path() const;

  /// Number of objects n.
  std::size_t size() const { return view().size(); }
  /// Dimensionality m.
  std::size_t dims() const { return view().dims(); }
};

using MomentStorePtr = std::unique_ptr<MomentStore>;

/// The Resident backend: owns a flat MomentMatrix.
class ResidentMomentStore final : public MomentStore {
 public:
  explicit ResidentMomentStore(MomentMatrix matrix)
      : matrix_(std::move(matrix)) {}

  MomentBackend backend() const override { return MomentBackend::kResident; }
  MomentView view() const override { return matrix_.view(); }
  std::size_t moment_bytes_resident() const override {
    return (3 * matrix_.size() * matrix_.dims() + matrix_.size()) *
           sizeof(double);
  }

  /// The underlying flat matrix.
  const MomentMatrix& matrix() const { return matrix_; }

 private:
  MomentMatrix matrix_;
};

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_MOMENT_STORE_H_
