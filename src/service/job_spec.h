// JobSpec: the single validated path from an external request (JSON body
// or string key/values) to a runnable clustering configuration. Everything
// a job needs is here — dataset id, algorithm, k, seed, iteration cap,
// result shape — plus the engine knobs, which are applied through the one
// canonical string-knob table (engine::ApplyEngineKnob), so the service
// accepts exactly the keys and value grammar the CLI flags do.
//
// Validation is strict and happens at submit time, never in the job
// runner: unknown top-level keys, unknown algorithms, non-positive k, and
// malformed knob values are all InvalidArgument before a job id is ever
// allocated.
#ifndef UCLUST_SERVICE_JOB_SPEC_H_
#define UCLUST_SERVICE_JOB_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "engine/engine.h"

namespace uclust::service {

struct JobSpec {
  std::string dataset_id;
  /// Any clustering::RegisteredClusterers() name. The moment algorithms
  /// (UCPC, MMVar, and "UK-means" / "CK-means", one algorithm under two
  /// names) run on the dataset's moment store: the registry's cached one,
  /// or resident or mapped within the job's budget. Every other algorithm
  /// loads the dataset fully resident.
  std::string algorithm = "CK-means";
  int k = 0;
  std::uint64_t seed = 0;
  /// Lloyd iteration cap of UK-means / CK-means; every other algorithm
  /// keeps its own default cap.
  int max_iters = 100;
  /// Include the per-object labels array in the result JSON (counters and
  /// objective are always included).
  bool include_labels = true;
  /// The applied engine configuration (defaults + knobs, in document
  /// order).
  engine::EngineConfig engine;
  /// The knob key/value pairs as received, for the ToJson() echo.
  std::vector<std::pair<std::string, std::string>> engine_knobs;

  /// Parses + validates a JSON request body:
  ///   {"dataset_id": "ds-1", "algorithm": "CK-means", "k": 8,
  ///    "seed": 42, "max_iters": 100, "include_labels": false,
  ///    "engine": {"threads": 4, "memory_budget_mb": 64}}
  /// Only dataset_id and k are required. Engine knob values may be JSON
  /// numbers (integral), booleans, or strings; they are normalized to
  /// strings and applied via engine::ApplyEngineKnob in document order.
  static common::Result<JobSpec> FromJson(std::string_view text);
  /// Same, over an already-parsed object.
  static common::Result<JobSpec> FromJsonValue(const common::JsonValue& root);

  /// Canonical JSON echo of the validated spec (what GET /v1/jobs/{id}
  /// reports as "spec").
  std::string ToJson() const;
  /// Appends the spec as the next value of an in-progress document.
  void AppendJson(common::JsonWriter* w) const;
};

}  // namespace uclust::service

#endif  // UCLUST_SERVICE_JOB_SPEC_H_
