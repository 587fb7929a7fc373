#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "clustering/simd/simd.h"

namespace uclust::engine {

namespace {

// Applies EngineConfig::simd_isa to the process-global kernel dispatcher.
// Unknown or unavailable requests fall back to auto (with a stderr warning)
// rather than failing construction: the fallback is value-identical, only
// slower/faster.
void ApplySimdIsa(const std::string& name) {
  clustering::simd::Isa isa;
  if (!clustering::simd::IsaFromString(name, &isa)) {
    std::fprintf(stderr,
                 "engine: unknown simd_isa '%s', using auto (%s)\n",
                 name.c_str(),
                 clustering::simd::IsaName(
                     clustering::simd::DetectBestIsa()).c_str());
    clustering::simd::ForceIsa(clustering::simd::Isa::kAuto);
    return;
  }
  if (!clustering::simd::ForceIsa(isa)) {
    std::fprintf(stderr,
                 "engine: simd_isa '%s' not available on this "
                 "build/cpu, using auto (%s)\n",
                 name.c_str(),
                 clustering::simd::IsaName(
                     clustering::simd::DetectBestIsa()).c_str());
    clustering::simd::ForceIsa(clustering::simd::Isa::kAuto);
  }
}

// Resolves EngineConfig::spatial_index. An unknown name falls back to auto
// with a stderr warning, as simd_isa does: every choice serves the same
// values, so the fallback changes only which pairs are tested.
clustering::SpatialIndexChoice ResolveSpatialIndex(const std::string& name) {
  auto choice = clustering::SpatialIndexChoice::kAuto;
  if (!clustering::SpatialIndexChoiceFromString(name, &choice)) {
    std::fprintf(stderr, "engine: unknown spatial_index '%s', using auto\n",
                 name.c_str());
  }
  return choice;
}

}  // namespace

Engine::Engine(const EngineConfig& config) {
  block_size_ = std::max<std::size_t>(config.block_size, 1);
  memory_budget_bytes_ = config.memory_budget_bytes;
  moment_chunk_rows_ = config.moment_chunk_rows;
  sample_chunk_rows_ = config.sample_chunk_rows;
  pairwise_gather_tiles_ = config.pairwise_gather_tiles;
  pairwise_warm_rows_ = config.pairwise_warm_rows;
  pairwise_pruned_sweeps_ = config.pairwise_pruned_sweeps;
  ukmeans_ckmeans_reduction_ = config.ukmeans_ckmeans_reduction;
  ukmeans_bound_pruning_ = config.ukmeans_bound_pruning;
  ukmeans_minibatch_size_ = config.ukmeans_minibatch_size;
  spatial_index_ = ResolveSpatialIndex(config.spatial_index);
  ApplySimdIsa(config.simd_isa);
  int threads = config.num_threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(threads, 1);
  if (threads > 1) pool_ = std::make_shared<ThreadPool>(threads - 1);
}

const Engine& Engine::Serial() {
  static const Engine* serial = new Engine();
  return *serial;
}

std::string Engine::simd_isa() const {
  return clustering::simd::IsaName(clustering::simd::ActiveIsa());
}

namespace {

// Strict value grammars shared by every knob. Unlike ArgParser's lenient
// getters, a malformed value is an error, not a silent default.
common::Status ParseKnobInt(const std::string& key, const std::string& value,
                            int64_t min, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || v < min) {
    return common::Status::InvalidArgument(
        "engine knob '" + key + "': expected an integer >= " +
        std::to_string(min) + ", got '" + value + "'");
  }
  *out = static_cast<int64_t>(v);
  return common::Status::Ok();
}

common::Status ParseKnobBool(const std::string& key, const std::string& value,
                             bool* out) {
  if (value == "true" || value == "1" || value == "yes") {
    *out = true;
    return common::Status::Ok();
  }
  if (value == "false" || value == "0" || value == "no") {
    *out = false;
    return common::Status::Ok();
  }
  return common::Status::InvalidArgument(
      "engine knob '" + key + "': expected true/1/yes or false/0/no, got '" +
      value + "'");
}

}  // namespace

common::Status ApplyEngineKnob(const std::string& key,
                               const std::string& value, EngineConfig* cfg) {
  int64_t n = 0;
  bool b = false;
  if (key == "threads") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, &n));
    cfg->num_threads = static_cast<int>(n);
  } else if (key == "block_size") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 1, &n));
    cfg->block_size = static_cast<std::size_t>(n);
  } else if (key == "memory_budget_bytes") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, &n));
    cfg->memory_budget_bytes = static_cast<std::size_t>(n);
  } else if (key == "memory_budget_mb") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, &n));
    cfg->memory_budget_bytes =
        static_cast<std::size_t>(n) * (std::size_t{1} << 20);
  } else if (key == "moment_chunk_rows") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, &n));
    cfg->moment_chunk_rows = static_cast<std::size_t>(n);
  } else if (key == "sample_chunk_rows") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, &n));
    cfg->sample_chunk_rows = static_cast<std::size_t>(n);
  } else if (key == "pairwise_gather_tiles") {
    UCLUST_RETURN_NOT_OK(ParseKnobBool(key, value, &b));
    cfg->pairwise_gather_tiles = b;
  } else if (key == "pairwise_warm_rows") {
    UCLUST_RETURN_NOT_OK(ParseKnobBool(key, value, &b));
    cfg->pairwise_warm_rows = b;
  } else if (key == "pairwise_pruned_sweeps") {
    UCLUST_RETURN_NOT_OK(ParseKnobBool(key, value, &b));
    cfg->pairwise_pruned_sweeps = b;
  } else if (key == "ukmeans_ckmeans_reduction") {
    UCLUST_RETURN_NOT_OK(ParseKnobBool(key, value, &b));
    cfg->ukmeans_ckmeans_reduction = b;
  } else if (key == "ukmeans_bound_pruning") {
    UCLUST_RETURN_NOT_OK(ParseKnobBool(key, value, &b));
    cfg->ukmeans_bound_pruning = b;
  } else if (key == "ukmeans_minibatch_size") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, &n));
    cfg->ukmeans_minibatch_size = static_cast<std::size_t>(n);
  } else if (key == "simd_isa") {
    clustering::simd::Isa isa;
    if (!clustering::simd::IsaFromString(value, &isa)) {
      return common::Status::InvalidArgument(
          "engine knob 'simd_isa': expected auto, scalar, avx2, or neon, "
          "got '" + value + "'");
    }
    cfg->simd_isa = value;
  } else if (key == "spatial_index") {
    auto choice = clustering::SpatialIndexChoice::kAuto;
    if (!clustering::SpatialIndexChoiceFromString(value, &choice)) {
      return common::Status::InvalidArgument(
          "engine knob 'spatial_index': expected auto, rtree, or off, got '" +
          value + "'");
    }
    cfg->spatial_index = value;
  } else {
    return common::Status::InvalidArgument("unknown engine knob '" + key +
                                           "'");
  }
  return common::Status::Ok();
}

const std::vector<std::string>& EngineKnobNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "threads",
      "block_size",
      "memory_budget_mb",
      "memory_budget_bytes",
      "moment_chunk_rows",
      "sample_chunk_rows",
      "pairwise_gather_tiles",
      "pairwise_warm_rows",
      "pairwise_pruned_sweeps",
      "ukmeans_ckmeans_reduction",
      "ukmeans_bound_pruning",
      "ukmeans_minibatch_size",
      "simd_isa",
      "spatial_index",
  };
  return *names;
}

}  // namespace uclust::engine
