#include "service/job_spec.h"

#include <cmath>

#include "clustering/registry.h"

namespace uclust::service {

namespace {

// Whether a finite integral double converts to int64 without undefined
// behaviour: the int64 range is [-2^63, 2^63).
bool FitsInt64(double d) { return d >= -0x1p63 && d < 0x1p63; }

// Normalizes one JSON knob value to the string form ApplyEngineKnob
// parses. Integral numbers, booleans, and strings only — a fractional
// number is an error (every numeric knob is an integer).
common::Result<std::string> KnobValueToString(const std::string& key,
                                              const common::JsonValue& v) {
  switch (v.type()) {
    case common::JsonValue::Type::kString:
      return v.AsString();
    case common::JsonValue::Type::kBool:
      return std::string(v.AsBool() ? "true" : "false");
    case common::JsonValue::Type::kNumber: {
      if (v.is_int()) return std::to_string(v.AsInt());
      const double d = v.AsDouble();
      if (!std::isfinite(d) || d != std::floor(d)) {
        return common::Status::InvalidArgument(
            "job spec: engine." + key + " must be an integer");
      }
      if (!FitsInt64(d)) {
        return common::Status::InvalidArgument(
            "job spec: engine." + key + " is out of the integer range");
      }
      return std::to_string(static_cast<int64_t>(d));
    }
    default:
      return common::Status::InvalidArgument(
          "job spec: engine." + key + " must be a number, bool, or string");
  }
}

common::Status ExpectInt(const std::string& key, const common::JsonValue& v,
                         int64_t min, int64_t max, int64_t* out) {
  if (!v.is_number() || v.AsDouble() != std::floor(v.AsDouble())) {
    return common::Status::InvalidArgument("job spec: " + key +
                                           " must be an integer");
  }
  if (!v.is_int() && !FitsInt64(v.AsDouble())) {  // AsInt() would be UB
    return common::Status::OutOfRange(
        "job spec: " + key + " out of range [" + std::to_string(min) + ", " +
        std::to_string(max) + "]");
  }
  const int64_t i = v.AsInt();
  if (i < min || i > max) {
    return common::Status::OutOfRange(
        "job spec: " + key + " = " + std::to_string(i) + " out of range [" +
        std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  *out = i;
  return common::Status::Ok();
}

}  // namespace

common::Result<JobSpec> JobSpec::FromJson(std::string_view text) {
  common::Result<common::JsonValue> parsed = common::ParseJson(text);
  if (!parsed.ok()) {
    return common::Status::InvalidArgument("job spec: " +
                                           parsed.status().message());
  }
  return FromJsonValue(parsed.ValueOrDie());
}

common::Result<JobSpec> JobSpec::FromJsonValue(const common::JsonValue& root) {
  if (!root.is_object()) {
    return common::Status::InvalidArgument(
        "job spec: request body must be a JSON object");
  }
  JobSpec spec;
  bool saw_k = false;
  for (const auto& [key, value] : root.members()) {
    if (key == "dataset_id") {
      if (!value.is_string() || value.AsString().empty()) {
        return common::Status::InvalidArgument(
            "job spec: dataset_id must be a non-empty string");
      }
      spec.dataset_id = value.AsString();
    } else if (key == "algorithm") {
      if (!value.is_string()) {
        return common::Status::InvalidArgument(
            "job spec: algorithm must be a string");
      }
      spec.algorithm = value.AsString();
    } else if (key == "k") {
      int64_t k = 0;
      UCLUST_RETURN_NOT_OK(ExpectInt("k", value, 1, 1 << 28, &k));
      spec.k = static_cast<int>(k);
      saw_k = true;
    } else if (key == "seed") {
      int64_t seed = 0;
      UCLUST_RETURN_NOT_OK(
          ExpectInt("seed", value, 0, INT64_MAX, &seed));
      spec.seed = static_cast<std::uint64_t>(seed);
    } else if (key == "max_iters") {
      int64_t iters = 0;
      UCLUST_RETURN_NOT_OK(ExpectInt("max_iters", value, 1, 1 << 24, &iters));
      spec.max_iters = static_cast<int>(iters);
    } else if (key == "include_labels") {
      if (!value.is_bool()) {
        return common::Status::InvalidArgument(
            "job spec: include_labels must be a boolean");
      }
      spec.include_labels = value.AsBool();
    } else if (key == "engine") {
      if (!value.is_object()) {
        return common::Status::InvalidArgument(
            "job spec: engine must be an object of knob key/values");
      }
      for (const auto& [knob, knob_value] : value.members()) {
        common::Result<std::string> normalized =
            KnobValueToString(knob, knob_value);
        if (!normalized.ok()) return normalized.status();
        const std::string& str = normalized.ValueOrDie();
        common::Status applied =
            engine::ApplyEngineKnob(knob, str, &spec.engine);
        if (!applied.ok()) {
          return common::Status::InvalidArgument("job spec: engine." + knob +
                                                 ": " + applied.message());
        }
        spec.engine_knobs.emplace_back(knob, str);
      }
    } else {
      return common::Status::InvalidArgument("job spec: unknown key: " + key);
    }
  }
  if (spec.dataset_id.empty()) {
    return common::Status::InvalidArgument("job spec: dataset_id is required");
  }
  if (!saw_k) {
    return common::Status::InvalidArgument("job spec: k is required");
  }
  // Algorithm names are validated against the registry at submit time so a
  // typo fails the request, not the job.
  bool known = false;
  for (const std::string& name : clustering::RegisteredClusterers()) {
    if (name == spec.algorithm) {
      known = true;
      break;
    }
  }
  if (!known) {
    return common::Status::InvalidArgument(
        "job spec: unknown algorithm: " + spec.algorithm +
        " (see GET /v1/algorithms)");
  }
  return spec;
}

void JobSpec::AppendJson(common::JsonWriter* w) const {
  w->BeginObject();
  w->KV("dataset_id", dataset_id);
  w->KV("algorithm", algorithm);
  w->KV("k", k);
  w->KV("seed", static_cast<int64_t>(seed));
  w->KV("max_iters", max_iters);
  w->KV("include_labels", include_labels);
  w->Key("engine");
  w->BeginObject();
  for (const auto& [key, value] : engine_knobs) {
    w->KV(key, value);
  }
  w->EndObject();
  w->EndObject();
}

std::string JobSpec::ToJson() const {
  common::JsonWriter w;
  AppendJson(&w);
  return w.str();
}

}  // namespace uclust::service
