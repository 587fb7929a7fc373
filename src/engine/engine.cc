#include "engine/engine.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <thread>

namespace uclust::engine {

Engine::Engine(const EngineConfig& config) {
  block_size_ = std::max<std::size_t>(config.block_size, 1);
  memory_budget_bytes_ = config.memory_budget_bytes;
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
  };
  return *names;
}

}  // namespace uclust::engine
