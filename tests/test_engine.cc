// Tests for the execution engine: ThreadPool scheduling and reuse,
// exception propagation, blocked-range helpers, the determinism
// contract of MapBlocks reductions, and worker start placement.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/cpu_spread.h"
#include "engine/engine.h"
#include "engine/parallel_for.h"
#include "engine/thread_pool.h"

namespace uclust::engine {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  EXPECT_EQ(pool.max_concurrency(), 4);
  std::vector<std::atomic<int>> hits(100);
  pool.RunTasks(100, [&](std::size_t t) { ++hits[t]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.RunTasks(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.RunTasks(16, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 200 * 16);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.RunTasks(64,
                    [&](std::size_t t) {
                      if (t == 13) throw std::runtime_error("task 13 failed");
                      ++completed;
                    }),
      std::runtime_error);
  // Every non-throwing task still ran; the batch drained before rethrow.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, SurvivesExceptionAndKeepsWorking) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.RunTasks(
                   8, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  std::atomic<int> total{0};
  pool.RunTasks(8, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, NestedRunTasksExecutesInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.RunTasks(4, [&](std::size_t) {
    pool.RunTasks(5, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 4 * 5);
}

TEST(ParallelFor, CoversTheRangeWithoutOverlap) {
  for (int threads : {1, 4}) {
    EngineConfig config;
    config.num_threads = threads;
    config.block_size = 7;  // deliberately not dividing n
    Engine eng(config);
    std::vector<std::atomic<int>> hits(100);
    ParallelFor(eng, 100, [&](const BlockedRange& r) {
      EXPECT_LT(r.begin, r.end);
      for (std::size_t i = r.begin; i < r.end; ++i) ++hits[i];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeNeverInvokesTheBody) {
  EngineConfig config;
  config.num_threads = 4;
  Engine eng(config);
  bool ran = false;
  ParallelFor(eng, 0, [&](const BlockedRange&) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, BlockIndicesMatchBoundaries) {
  EngineConfig config;
  config.num_threads = 2;
  config.block_size = 10;
  Engine eng(config);
  std::vector<std::atomic<int>> seen(NumBlocks(95, 10));
  ParallelFor(eng, 95, [&](const BlockedRange& r) {
    EXPECT_EQ(r.begin, r.index * 10);
    EXPECT_EQ(r.end, std::min<std::size_t>(r.begin + 10, 95));
    ++seen[r.index];
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(MapBlocks, OrderedReductionIsThreadCountInvariant) {
  // A sum of pseudo-random doubles is sensitive to association order; the
  // per-block partials must therefore be bit-identical across thread counts.
  std::vector<double> values(10'000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(static_cast<double>(i)) * 1e3;
  }
  auto total_at = [&](int threads) {
    EngineConfig config;
    config.num_threads = threads;
    config.block_size = 256;
    Engine eng(config);
    const std::vector<double> partials =
        MapBlocks<double>(eng, values.size(), [&](const BlockedRange& r) {
          double acc = 0.0;
          for (std::size_t i = r.begin; i < r.end; ++i) acc += values[i];
          return acc;
        });
    double total = 0.0;
    for (double p : partials) total += p;
    return total;
  };
  const double serial = total_at(1);
  for (int threads : {2, 3, 8}) {
    const double parallel = total_at(threads);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(Engine, SerialEngineHasNoPool) {
  const Engine& eng = Engine::Serial();
  EXPECT_EQ(eng.pool(), nullptr);
  EXPECT_EQ(eng.num_threads(), 1);
}

TEST(Engine, SingleThreadConfigStaysSerial) {
  EngineConfig config;
  config.num_threads = 1;
  Engine eng(config);
  EXPECT_EQ(eng.pool(), nullptr);
}

TEST(Engine, AutoThreadsResolvesToHardware) {
  EngineConfig config;
  config.num_threads = 0;  // auto
  Engine eng(config);
  EXPECT_GE(eng.num_threads(), 1);
}

TEST(Engine, CopiesShareOnePool) {
  EngineConfig config;
  config.num_threads = 4;
  Engine a(config);
  Engine b = a;
  EXPECT_EQ(a.pool(), b.pool());
  EXPECT_NE(a.pool(), nullptr);
}

// The knob table is exactly the three EngineConfig fields (memory budget
// in two spellings); the deleted policy, selection and chunk-rows knobs are
// unknown keys.
TEST(EngineKnobs, NamesListTheSurvivingKnobsOnly) {
  EXPECT_EQ(EngineKnobNames(),
            (std::vector<std::string>{"threads", "block_size",
                                      "memory_budget_mb",
                                      "memory_budget_bytes"}));
  for (const std::string& key : EngineKnobNames()) {
    EngineConfig cfg;
    EXPECT_TRUE(ApplyEngineKnob(key, "1", &cfg).ok()) << key;
  }
  for (const char* removed :
       {"pairwise_gather_tiles", "pairwise_warm_rows",
        "pairwise_pruned_sweeps", "ukmeans_ckmeans_reduction",
        "ukmeans_bound_pruning", "ukmeans_minibatch_size", "simd_isa",
        "spatial_index", "moment_chunk_rows", "sample_chunk_rows"}) {
    EngineConfig cfg;
    const common::Status st = ApplyEngineKnob(removed, "auto", &cfg);
    EXPECT_EQ(st.code(), common::StatusCode::kInvalidArgument) << removed;
    EXPECT_NE(st.message().find("unknown engine knob"), std::string::npos)
        << st.message();
  }
}

// Integer knobs reject what their field cannot hold instead of narrowing,
// wrapping, or saturating it into a different setting.
TEST(EngineKnobs, IntegerKnobsRejectOutOfRangeValues) {
  const struct {
    const char* key;
    const char* value;
  } bad[] = {
      {"threads", "4294967298"},                // would narrow to 2
      {"threads", "2147483648"},                // INT_MAX + 1
      {"threads", "-1"},
      {"memory_budget_mb", "17592186044417"},   // would wrap to 1 MiB
      {"memory_budget_mb", "17592186044416"},   // 2^44 MiB = 2^64 bytes
      {"block_size", "99999999999999999999999"},  // strtoll ERANGE
      {"block_size", "0"},
      {"memory_budget_bytes", "-99999999999999999999999"},
      {"memory_budget_bytes", "18446744073709551616"},  // 2^64
      {"block_size", "12abc"},
      {"threads", ""},
  };
  for (const auto& c : bad) {
    EngineConfig cfg;
    cfg.num_threads = 3;
    cfg.block_size = 77;
    cfg.memory_budget_bytes = 5;
    const common::Status st = ApplyEngineKnob(c.key, c.value, &cfg);
    EXPECT_EQ(st.code(), common::StatusCode::kInvalidArgument)
        << c.key << "=" << c.value;
    EXPECT_NE(st.message().find(std::string("engine knob '") + c.key +
                                "': expected an integer in ["),
              std::string::npos)
        << st.message();
    // Unchanged on error.
    EXPECT_EQ(cfg.num_threads, 3);
    EXPECT_EQ(cfg.block_size, 77u);
    EXPECT_EQ(cfg.memory_budget_bytes, 5u);
  }
  // The range edges themselves are accepted.
  EngineConfig cfg;
  ASSERT_TRUE(ApplyEngineKnob("threads", "2147483647", &cfg).ok());
  EXPECT_EQ(cfg.num_threads, 2147483647);
  ASSERT_TRUE(
      ApplyEngineKnob("memory_budget_mb", "17592186044415", &cfg).ok());
  EXPECT_EQ(cfg.memory_budget_bytes, std::size_t{17592186044415} << 20);
  ASSERT_TRUE(ApplyEngineKnob("block_size", "9223372036854775807", &cfg).ok());
  EXPECT_EQ(cfg.block_size, std::size_t{9223372036854775807});
}

TEST(PerWorker, SlotsMatchConcurrencyAndStayInRange) {
  EngineConfig config;
  config.num_threads = 3;
  config.block_size = 4;
  Engine eng(config);
  PerWorker<std::vector<int>> scratch(eng);
  EXPECT_EQ(scratch.slots().size(), 3u);
  std::atomic<int> touched{0};
  ParallelFor(eng, 1000, [&](const BlockedRange& r) {
    std::vector<int>& local = scratch.local();
    local.assign(1, static_cast<int>(r.index));
    touched += static_cast<int>(r.end - r.begin);
  });
  EXPECT_EQ(touched.load(), 1000);
}

// Threads started in a row from one CPU begin on the other allowed CPUs,
// one each, in ascending order after the creator's and wrapping around.
TEST(CpuSpread, TakesTheOtherAllowedCpusRoundRobin) {
  const std::vector<int> four = {0, 1, 2, 3};
  std::vector<int> got;
  for (unsigned slot = 0; slot < 4; ++slot) {
    got.push_back(SpreadCpu(four, 1, slot));
  }
  EXPECT_EQ(got, (std::vector<int>{2, 3, 0, 2}));
  const std::vector<int> sparse = {0, 2, 5};
  EXPECT_EQ(SpreadCpu(sparse, 5, 0), 0);
  EXPECT_EQ(SpreadCpu(sparse, 5, 1), 2);
  EXPECT_EQ(SpreadCpu(sparse, 5, 2), 0);
}

TEST(CpuSpread, NoChoiceGivesMinusOne) {
  EXPECT_EQ(SpreadCpu({3}, 3, 0), -1);
  EXPECT_EQ(SpreadCpu({0, 1}, 2, 0), -1);  // creator outside the set
  EXPECT_EQ(SpreadCpu({}, 0, 0), -1);
}

#if defined(__linux__)
std::vector<int> AllowedCpus() {
  cpu_set_t mask;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
  return cpus;
}

// A start position, not a pin: the thread ends with the affinity it had.
TEST(CpuSpread, StartOnCpuRestoresTheAffinity) {
  const std::vector<int> before = AllowedCpus();
  ASSERT_FALSE(before.empty());
  const int cpu = CpuForNewThread();
  if (cpu >= 0) {
    EXPECT_TRUE(std::find(before.begin(), before.end(), cpu) != before.end());
  }
  std::vector<int> inside;
  std::thread t([&] {
    StartOnCpu(cpu);
    inside = AllowedCpus();
  });
  t.join();
  EXPECT_EQ(inside, before);
  StartOnCpu(-1);
  EXPECT_EQ(AllowedCpus(), before);
}
#endif

}  // namespace
}  // namespace uclust::engine
