#include "engine/engine.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
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

// The strict integer grammar shared by every numeric knob. Unlike
// ArgParser's lenient getters, a malformed value is an error, not a silent
// default — and so is a value outside [min, max], the range the knob's
// field can hold: strtoll saturates on overflow (ERANGE), and a later
// narrowing or scaling would otherwise wrap it into a different setting.
common::Status ParseKnobInt(const std::string& key, const std::string& value,
                            int64_t min, int64_t max, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() ||
      errno == ERANGE || v < min || v > max) {
    return common::Status::InvalidArgument(
        "engine knob '" + key + "': expected an integer in [" +
        std::to_string(min) + ", " + std::to_string(max) + "], got '" +
        value + "'");
  }
  *out = static_cast<int64_t>(v);
  return common::Status::Ok();
}

// Largest value a size_t knob accepts: the int64 grammar's ceiling, or
// SIZE_MAX where size_t is narrower.
constexpr int64_t kMaxSize = static_cast<int64_t>(
    std::min<uint64_t>(std::numeric_limits<std::size_t>::max(),
                       std::numeric_limits<int64_t>::max()));

}  // namespace

common::Status ApplyEngineKnob(const std::string& key,
                               const std::string& value, EngineConfig* cfg) {
  int64_t n = 0;
  if (key == "threads") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0,
                                      std::numeric_limits<int>::max(), &n));
    cfg->num_threads = static_cast<int>(n);
  } else if (key == "block_size") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 1, kMaxSize, &n));
    cfg->block_size = static_cast<std::size_t>(n);
  } else if (key == "memory_budget_bytes") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, kMaxSize, &n));
    cfg->memory_budget_bytes = static_cast<std::size_t>(n);
  } else if (key == "memory_budget_mb") {
    // The byte count n << 20 must fit size_t, or the budget would wrap.
    UCLUST_RETURN_NOT_OK(ParseKnobInt(
        key, value, 0,
        static_cast<int64_t>(std::numeric_limits<std::size_t>::max() >> 20),
        &n));
    cfg->memory_budget_bytes =
        static_cast<std::size_t>(n) * (std::size_t{1} << 20);
  } else if (key == "moment_chunk_rows") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, kMaxSize, &n));
    cfg->moment_chunk_rows = static_cast<std::size_t>(n);
  } else if (key == "sample_chunk_rows") {
    UCLUST_RETURN_NOT_OK(ParseKnobInt(key, value, 0, kMaxSize, &n));
    cfg->sample_chunk_rows = static_cast<std::size_t>(n);
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
      "simd_isa",
      "spatial_index",
  };
  return *names;
}

}  // namespace uclust::engine
