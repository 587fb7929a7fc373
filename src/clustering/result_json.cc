#include "clustering/result_json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace uclust::clustering {

uint64_t ResultFingerprint(std::span<const int> labels, double objective) {
  uint64_t h = 1469598103934665603ull;
  auto mix_byte = [&h](unsigned char byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (int label : labels) {
    for (int b = 0; b < 32; b += 8) {
      mix_byte(static_cast<unsigned char>(
          (static_cast<uint32_t>(label) >> b) & 0xff));
    }
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(objective));
  std::memcpy(&bits, &objective, sizeof(bits));
  for (int b = 0; b < 64; b += 8) {
    mix_byte(static_cast<unsigned char>((bits >> b) & 0xff));
  }
  return h;
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

namespace {

/// The canonical field order, shared by both AppendResultJson overloads.
/// `for_each_label(emit)` calls emit(label) for every label in order; it
/// runs only when `include_labels` is set.
template <typename ForEachLabel>
void AppendResultObject(common::JsonWriter* json, const ClusteringResult& r,
                        uint64_t fingerprint, bool include_labels,
                        const ForEachLabel& for_each_label) {
  json->BeginObject();
  json->KV("k_requested", r.k_requested);
  json->KV("clusters_found", r.clusters_found);
  json->KV("iterations", r.iterations);
  json->KVExact("objective", r.objective);
  json->KV("fingerprint", FingerprintHex(fingerprint));
  json->KV("online_ms", r.online_ms);
  json->KV("offline_ms", r.offline_ms);
  json->KV("ed_evaluations", r.ed_evaluations);
  json->KV("noise_objects", r.noise_objects);
  json->KV("pairwise_backend", r.pairwise_backend);
  json->KV("table_bytes_peak", r.table_bytes_peak);
  json->KV("pair_evaluations", r.pair_evaluations);
  json->KV("tile_warm_hits", r.tile_warm_hits);
  json->KV("tile_warm_misses", r.tile_warm_misses);
  json->KV("pairs_pruned", r.pairs_pruned);
  json->KV("center_distance_evals", r.center_distance_evals);
  json->KV("bounds_skipped", r.bounds_skipped);
  json->KV("index_candidates", r.index_candidates);
  json->KV("pairs_pruned_by_index", r.pairs_pruned_by_index);
  json->KV("index_bound_tests", r.index_bound_tests);
  if (include_labels) {
    json->Key("labels");
    json->BeginArray();
    for_each_label([json](int label) { json->Value(label); });
    json->EndArray();
  }
  json->EndObject();
}

template <typename Word>
void PackLabels(const std::vector<int>& labels, int base,
                std::vector<uint8_t>* out) {
  out->resize(labels.size() * sizeof(Word));
  uint8_t* dst = out->data();
  for (int label : labels) {
    const Word word = static_cast<Word>(static_cast<int64_t>(label) - base);
    std::memcpy(dst, &word, sizeof(Word));
    dst += sizeof(Word);
  }
}

template <typename Word, typename Emit>
void UnpackLabels(const PackedResult& r, const Emit& emit) {
  const uint8_t* src = r.packed_labels.data();
  const uint8_t* end = src + r.packed_labels.size();
  for (; src != end; src += sizeof(Word)) {
    Word word;
    std::memcpy(&word, src, sizeof(Word));
    emit(static_cast<int>(r.label_base + static_cast<int64_t>(word)));
  }
}

}  // namespace

void AppendResultJson(common::JsonWriter* json, const ClusteringResult& r,
                      bool include_labels) {
  AppendResultObject(json, r, ResultFingerprint(r.labels, r.objective),
                     include_labels, [&r](const auto& emit) {
                       for (int label : r.labels) emit(label);
                     });
}

PackedResult PackResult(ClusteringResult r, bool include_labels) {
  PackedResult packed;
  packed.fingerprint = ResultFingerprint(r.labels, r.objective);
  if (include_labels) {
    int64_t range = 0;
    if (!r.labels.empty()) {
      const auto [lo, hi] =
          std::minmax_element(r.labels.begin(), r.labels.end());
      packed.label_base = *lo;
      range = static_cast<int64_t>(*hi) - *lo;
    }
    if (range <= 0xff) {
      packed.label_width = 1;
      PackLabels<uint8_t>(r.labels, packed.label_base, &packed.packed_labels);
    } else if (range <= 0xffff) {
      packed.label_width = 2;
      PackLabels<uint16_t>(r.labels, packed.label_base, &packed.packed_labels);
    } else {
      packed.label_width = 4;
      PackLabels<uint32_t>(r.labels, packed.label_base, &packed.packed_labels);
    }
  }
  r.labels = std::vector<int>();
  packed.scalars = std::move(r);
  return packed;
}

void AppendResultJson(common::JsonWriter* json, const PackedResult& r) {
  AppendResultObject(json, r.scalars, r.fingerprint, r.label_width > 0,
                     [&r](const auto& emit) {
                       switch (r.label_width) {
                         case 1: UnpackLabels<uint8_t>(r, emit); break;
                         case 2: UnpackLabels<uint16_t>(r, emit); break;
                         default: UnpackLabels<uint32_t>(r, emit); break;
                       }
                     });
}

std::string ResultToJson(const ClusteringResult& r, bool include_labels) {
  common::JsonWriter json;
  AppendResultJson(&json, r, include_labels);
  return std::move(json.str());
}

}  // namespace uclust::clustering
