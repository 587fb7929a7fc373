// Canonical serialization of a ClusteringResult, plus the timing-free
// results fingerprint. This is the ONE place a result becomes JSON: the
// service's GET /v1/jobs/{id}/result route, the fig5 bench axes, and the
// golden-file test all emit through AppendResultJson, so a field added to
// ClusteringResult shows up everywhere (or nowhere) at once.
#ifndef UCLUST_CLUSTERING_RESULT_JSON_H_
#define UCLUST_CLUSTERING_RESULT_JSON_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clustering/clusterer.h"
#include "common/json.h"

namespace uclust::clustering {

/// FNV-1a over the label vector plus the objective's exact bits: a
/// timing-free results fingerprint. Two runs that cluster identically
/// produce the same value regardless of how fast they ran — the handle CI
/// uses to diff a service job against a direct in-process run, and
/// forced-scalar against auto SIMD dispatch.
uint64_t ResultFingerprint(std::span<const int> labels, double objective);

/// The fingerprint as the fixed-width lowercase hex string every marker
/// line and JSON document carries ("%016llx").
std::string FingerprintHex(uint64_t fingerprint);

/// Appends the canonical result object to an open JsonWriter document.
/// Counters and timings are always emitted; `labels` (potentially huge) are
/// opt-in. The objective is written round-trippable (%.17g) and the
/// "fingerprint" field carries FingerprintHex(ResultFingerprint(...)), so
/// two documents describe bit-identical clusterings iff their fingerprints
/// match. Field order is fixed — the golden-file test pins it.
void AppendResultJson(common::JsonWriter* json, const ClusteringResult& r,
                      bool include_labels);

/// The canonical result object as a standalone JSON document.
std::string ResultToJson(const ClusteringResult& r, bool include_labels);

/// A finished result in the compact form a long-lived store keeps: every
/// scalar field, the fingerprint computed once, and the labels (only when
/// they are to be emitted) packed to the narrowest unsigned width that
/// holds `label - label_base` exactly: one byte each when the labels span
/// at most 256 values (as labels in [0, 255] do), two up to 65,536, else
/// four.
struct PackedResult {
  /// Every field of the packed result but `labels`, which stays empty.
  ClusteringResult scalars;
  /// ResultFingerprint of the original labels and objective.
  uint64_t fingerprint = 0;
  /// Bytes per packed label: 1, 2 or 4; 0 when the record keeps no labels.
  int label_width = 0;
  /// The smallest label; each label is stored as label - label_base.
  int label_base = 0;
  std::vector<uint8_t> packed_labels;

  /// Bytes the record holds: its fixed part plus the packed labels.
  std::size_t RetainedBytes() const {
    return sizeof(PackedResult) + packed_labels.size();
  }
};

/// Packs `r`. With include_labels false the record keeps no labels; its
/// fingerprint still covers them.
PackedResult PackResult(ClusteringResult r, bool include_labels);

/// Appends the canonical result object of a packed result: the bytes
/// AppendResultJson gives for the original result, with labels iff the
/// record holds them.
void AppendResultJson(common::JsonWriter* json, const PackedResult& r);

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_RESULT_JSON_H_
