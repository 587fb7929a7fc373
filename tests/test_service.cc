// Tests for the service layer: JobSpec validation, the dataset registry,
// admission control (serialization of over-budget jobs, rejection at
// submit), job lifecycle + cancellation, the canonical ClusteringResult
// serialization against its golden file and its packed form, job-id
// lookup, the retained-result gauges, and the full REST route surface
// through ClusteringService::Handle (socket-free) — including a
// fingerprint match between a service job and a direct in-process run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clustering/ckmeans.h"
#include "clustering/registry.h"
#include "clustering/result_json.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/synthetic_gen.h"
#include "engine/engine.h"
#include "io/dataset_reader.h"
#include "io/ingest.h"
#include "service/dataset_registry.h"
#include "service/job_manager.h"
#include "service/job_spec.h"
#include "service/log.h"
#include "service/service.h"

namespace uclust::service {
namespace {

// One small labeled dataset file shared by every test in this binary.
const std::string& TestDatasetPath() {
  static const std::string path = [] {
    const std::string p = testing::TempDir() + "/uclust_service_test.ubin";
    data::SyntheticGenParams params;
    params.n = 120;
    params.m = 4;
    params.classes = 3;
    params.seed = 7;
    const common::Status st =
        data::WriteSyntheticDataset(params, p, "service-test");
    if (!st.ok()) {
      std::fprintf(stderr, "fixture dataset: %s\n", st.ToString().c_str());
      std::abort();
    }
    return p;
  }();
  return path;
}

// ------------------------------------------------------------- JobSpec --

TEST(JobSpec, MinimalValidBody) {
  auto spec = JobSpec::FromJson("{\"dataset_id\": \"ds-1\", \"k\": 3}");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.ValueOrDie().dataset_id, "ds-1");
  EXPECT_EQ(spec.ValueOrDie().k, 3);
  EXPECT_EQ(spec.ValueOrDie().algorithm, "CK-means");
  EXPECT_EQ(spec.ValueOrDie().max_iters, 100);
  EXPECT_TRUE(spec.ValueOrDie().include_labels);
}

TEST(JobSpec, FullBodyWithEngineKnobs) {
  auto spec = JobSpec::FromJson(
      "{\"dataset_id\": \"ds-2\", \"algorithm\": \"UK-means\", \"k\": 8,"
      " \"seed\": 42, \"max_iters\": 25, \"include_labels\": false,"
      " \"engine\": {\"threads\": 4, \"memory_budget_mb\": 64,"
      "              \"block_size\": 256}}");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const JobSpec& s = spec.ValueOrDie();
  EXPECT_EQ(s.algorithm, "UK-means");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.max_iters, 25);
  EXPECT_FALSE(s.include_labels);
  EXPECT_EQ(s.engine.num_threads, 4);
  EXPECT_EQ(s.engine.memory_budget_bytes, 64u * 1024 * 1024);
  EXPECT_EQ(s.engine.block_size, 256u);
  EXPECT_EQ(s.engine_knobs.size(), 3u);
}

// The policy, selection and chunk-rows knobs deleted from EngineConfig are
// unknown keys now: a job that still sends one gets InvalidArgument (HTTP 400) naming
// the key, not a silent default.
TEST(JobSpec, RemovedEngineKnobsAreRejected) {
  const struct {
    const char* key;
    const char* value;
  } removed[] = {
      {"pairwise_gather_tiles", "0"},     {"pairwise_warm_rows", "0"},
      {"pairwise_pruned_sweeps", "0"},    {"ukmeans_ckmeans_reduction", "0"},
      {"ukmeans_bound_pruning", "0"},     {"ukmeans_minibatch_size", "0"},
      {"spatial_index", "\"off\""},       {"simd_isa", "\"scalar\""},
      {"moment_chunk_rows", "1024"},      {"sample_chunk_rows", "64"},
  };
  for (const auto& r : removed) {
    auto spec = JobSpec::FromJson(
        std::string("{\"dataset_id\": \"ds-1\", \"k\": 2, \"engine\": {\"") +
        r.key + "\": " + r.value + "}}");
    ASSERT_FALSE(spec.ok()) << r.key;
    EXPECT_EQ(spec.status().code(), common::StatusCode::kInvalidArgument)
        << r.key;
    EXPECT_NE(spec.status().message().find(std::string("engine.") + r.key),
              std::string::npos)
        << spec.status().ToString();
    EXPECT_NE(spec.status().message().find("unknown engine knob"),
              std::string::npos)
        << spec.status().ToString();
  }
}

// Integer fields are exact int64 values: a seed above 2^53 is kept as
// sent, the documented maximum is accepted, and anything beyond int64 or
// with a fraction is rejected rather than rounded.
TEST(JobSpec, SeedIsAnExactInt64) {
  const auto with_seed = [](const std::string& seed) {
    return JobSpec::FromJson("{\"dataset_id\": \"ds-1\", \"k\": 2, \"seed\": " +
                             seed + "}");
  };
  for (const auto& [text, value] :
       {std::pair<const char*, uint64_t>{"9007199254740993",
                                         9007199254740993ull},
        {"9223372036854775807", 9223372036854775807ull}}) {
    auto spec = with_seed(text);
    ASSERT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
    EXPECT_EQ(spec.ValueOrDie().seed, value) << text;
    EXPECT_NE(spec.ValueOrDie().ToJson().find(std::string("\"seed\": ") + text),
              std::string::npos)
        << spec.ValueOrDie().ToJson();
  }
  for (const char* text : {"9223372036854775808", "1e19"}) {
    auto spec = with_seed(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_EQ(spec.status().code(), common::StatusCode::kOutOfRange) << text;
  }
  auto fractional = with_seed("1.5");
  ASSERT_FALSE(fractional.ok());
  EXPECT_EQ(fractional.status().code(), common::StatusCode::kInvalidArgument);
}

// Numeric engine knobs outside what their field (or the int64 cast of the
// JSON number) can hold are rejected instead of wrapping.
TEST(JobSpec, RejectsOutOfRangeEngineNumbers) {
  for (const char* knob :
       {"\"threads\": 1e30", "\"threads\": -1e30",
        "\"threads\": 9223372036854775808",
        "\"threads\": 4294967298",
        "\"memory_budget_mb\": 17592186044417",
        "\"block_size\": 1e300"}) {
    auto spec = JobSpec::FromJson(
        std::string("{\"dataset_id\": \"ds-1\", \"k\": 2, \"engine\": {") +
        knob + "}}");
    ASSERT_FALSE(spec.ok()) << knob;
    EXPECT_EQ(spec.status().code(), common::StatusCode::kInvalidArgument)
        << knob << ": " << spec.status().ToString();
  }
  // The top-level integer fields share the guard.
  for (const char* field : {"\"k\": 1e30", "\"seed\": 1e300"}) {
    auto spec = JobSpec::FromJson(
        std::string("{\"dataset_id\": \"ds-1\", \"k\": 2, ") + field + "}");
    EXPECT_FALSE(spec.ok()) << field;
  }
}

TEST(JobSpec, RejectsInvalidBodies) {
  EXPECT_FALSE(JobSpec::FromJson("not json").ok());
  EXPECT_FALSE(JobSpec::FromJson("[]").ok());  // must be an object
  EXPECT_FALSE(JobSpec::FromJson("{\"k\": 3}").ok());  // no dataset_id
  EXPECT_FALSE(JobSpec::FromJson("{\"dataset_id\": \"d\"}").ok());  // no k
  EXPECT_FALSE(
      JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 0}").ok());
  EXPECT_FALSE(
      JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": -2}").ok());
  // Unknown top-level keys are errors, not silently ignored.
  EXPECT_FALSE(
      JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3, \"kk\": 1}")
          .ok());
  // Unknown algorithm.
  EXPECT_FALSE(JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3,"
                                 " \"algorithm\": \"Z-means\"}")
                   .ok());
  // Unknown engine knob, and a fractional value for an integer knob.
  EXPECT_FALSE(JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3,"
                                 " \"engine\": {\"warp_drive\": 1}}")
                   .ok());
  EXPECT_FALSE(JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3,"
                                 " \"engine\": {\"threads\": 1.5}}")
                   .ok());
}

TEST(JobSpec, ToJsonRoundTrips) {
  auto spec = JobSpec::FromJson(
      "{\"dataset_id\": \"ds-1\", \"k\": 5, \"seed\": 9,"
      " \"engine\": {\"threads\": 2}}");
  ASSERT_TRUE(spec.ok());
  auto reparsed = JobSpec::FromJson(spec.ValueOrDie().ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.ValueOrDie().dataset_id, "ds-1");
  EXPECT_EQ(reparsed.ValueOrDie().k, 5);
  EXPECT_EQ(reparsed.ValueOrDie().seed, 9u);
  EXPECT_EQ(reparsed.ValueOrDie().engine.num_threads, 2);
}

// ------------------------------------------------------- JobSpec fuzz --

// One seeded mutation of a random corpus spec: byte flips, a truncation, a
// splice of two specs at random cut points, a numeric token replaced by a
// boundary number, or a structural token inserted.
std::string MutateSpec(const std::vector<std::string>& corpus,
                       common::Rng* rng) {
  std::string text = corpus[rng->Index(corpus.size())];
  switch (rng->Index(5)) {
    case 0: {
      const std::size_t flips = 1 + rng->Index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        char& c = text[rng->Index(text.size())];
        c = rng->Bernoulli(0.5) ? static_cast<char>(c ^ (1u << rng->Index(8)))
                                : static_cast<char>(rng->Index(256));
      }
      break;
    }
    case 1:
      text.resize(rng->Index(text.size()));
      break;
    case 2: {
      const std::string& donor = corpus[rng->Index(corpus.size())];
      text = text.substr(0, rng->Index(text.size() + 1)) +
             donor.substr(rng->Index(donor.size() + 1));
      break;
    }
    case 3: {
      static const char* const kBoundaries[] = {
          "0", "-0", "1", "-1", "268435456", "268435457", "16777217",
          "2147483647", "2147483648", "4294967296", "9223372036854775807",
          "9223372036854775808", "-9223372036854775808",
          "18446744073709551616", "1e308", "1e309", "-1e309", "1e-400",
          "4.9e-324", "0.5", "1.0", "1e2", "00", "01", "+1", ".5", "1.",
          "0x10", "NaN", "Infinity", "-"};
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < text.size(); ++i) {
        const bool digit = text[i] >= '0' && text[i] <= '9';
        if (digit && (i == 0 || !(text[i - 1] >= '0' && text[i - 1] <= '9'))) {
          starts.push_back(i);
        }
      }
      if (starts.empty()) break;
      const std::size_t at = starts[rng->Index(starts.size())];
      std::size_t end = at;
      while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
      text.replace(at, end - at,
                   kBoundaries[rng->Index(std::size(kBoundaries))]);
      break;
    }
    default: {
      static const char* const kTokens[] = {
          "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud800",
          "\\u0000", "null", "true", "false", "-", "1e999", "\xff", " ",
          "\"k\": 2,", "\"engine\": {},", "{\"a\": [[[[[[]]]]]]}"};
      text.insert(rng->Index(text.size() + 1),
                  kTokens[rng->Index(std::size(kTokens))]);
      break;
    }
  }
  return text;
}

// What every accepted spec must satisfy: the documented field ranges, a
// registered algorithm, knobs that replay to the same engine config, and
// a canonical echo that parses back to the same spec.
void ExpectValidSpec(const JobSpec& spec, const std::string& trace) {
  EXPECT_FALSE(spec.dataset_id.empty()) << trace;
  EXPECT_GE(spec.k, 1) << trace;
  EXPECT_LE(spec.k, 1 << 28) << trace;
  EXPECT_GE(spec.max_iters, 1) << trace;
  EXPECT_LE(spec.max_iters, 1 << 24) << trace;
  const std::vector<std::string> algorithms =
      clustering::RegisteredClusterers();
  EXPECT_NE(std::find(algorithms.begin(), algorithms.end(), spec.algorithm),
            algorithms.end())
      << trace;
  engine::EngineConfig replay;
  for (const auto& [key, value] : spec.engine_knobs) {
    ASSERT_TRUE(engine::ApplyEngineKnob(key, value, &replay).ok()) << trace;
  }
  EXPECT_EQ(replay.num_threads, spec.engine.num_threads) << trace;
  EXPECT_EQ(replay.block_size, spec.engine.block_size) << trace;
  EXPECT_EQ(replay.memory_budget_bytes, spec.engine.memory_budget_bytes)
      << trace;
  const std::string echo = spec.ToJson();
  auto reparsed = JobSpec::FromJson(echo);
  ASSERT_TRUE(reparsed.ok()) << trace << " echo=" << echo << ": "
                             << reparsed.status().ToString();
  EXPECT_EQ(reparsed.ValueOrDie().ToJson(), echo) << trace;
}

// Seeded mutation fuzz over the request path JobSpec::FromJson (and the
// common::ParseJson it drives): every mutant either parses to a valid spec
// or returns a non-OK Status, and never crashes or trips a sanitizer.
TEST(JobSpecFuzz, EveryMutantParsesToAValidSpecOrFails) {
  const std::vector<std::string> corpus = {
      "{\"dataset_id\": \"ds-1\", \"k\": 3}",
      "{\"dataset_id\": \"ds-2\", \"algorithm\": \"UK-means\", \"k\": 8,"
      " \"seed\": 42, \"max_iters\": 25, \"include_labels\": false,"
      " \"engine\": {\"threads\": 4, \"memory_budget_mb\": 64,"
      " \"block_size\": 256}}",
      "{\"k\": 12, \"dataset_id\": \"ds-\\u0033\\n\", \"algorithm\":"
      " \"UK-medoids\", \"engine\": {\"memory_budget_bytes\": \"1048576\","
      " \"threads\": 0}}",
      " {\n\t\"dataset_id\" : \"d\" ,\"k\":1,\"seed\":9007199254740992,"
      "\"max_iters\":16777216,\"include_labels\":true,\"engine\":{}}\n",
  };
  for (const std::string& text : corpus) {
    auto spec = JobSpec::FromJson(text);
    ASSERT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
    ExpectValidSpec(spec.ValueOrDie(), text);
  }

  common::Rng rng(20261017);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string text = MutateSpec(corpus, &rng);
    const std::string trace = "mutant " + std::to_string(iter);
    auto spec = JobSpec::FromJson(text);
    if (spec.ok()) {
      ++accepted;
      ExpectValidSpec(spec.ValueOrDie(), trace);
      ASSERT_FALSE(::testing::Test::HasFailure()) << trace << ": " << text;
    } else {
      ++rejected;
      EXPECT_FALSE(spec.status().message().empty()) << trace;
    }
  }
  // The mutations must exercise both verdicts.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ----------------------------------------------------- DatasetRegistry --

TEST(DatasetRegistry, RegisterValidatesAndDedupes) {
  DatasetRegistry registry;
  auto first = registry.Register(TestDatasetPath());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const DatasetInfo& info = first.ValueOrDie();
  EXPECT_EQ(info.id, "ds-1");
  EXPECT_EQ(info.n, 120u);
  EXPECT_EQ(info.m, 4u);
  EXPECT_EQ(info.num_classes, 3);
  EXPECT_TRUE(info.has_labels);
  EXPECT_GT(info.file_bytes, 0u);

  // Same path again: same id, updated sidecar.
  auto again = registry.Register(TestDatasetPath(),
                                 TestDatasetPath() + ".umom");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().id, "ds-1");
  EXPECT_EQ(again.ValueOrDie().moments_path, TestDatasetPath() + ".umom");
  EXPECT_EQ(registry.size(), 1u);

  auto got = registry.Get("ds-1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().path, TestDatasetPath());
  EXPECT_FALSE(registry.Get("ds-99").ok());
  EXPECT_EQ(registry.List().size(), 1u);
}

TEST(DatasetRegistry, RejectsBadInputs) {
  DatasetRegistry registry;
  EXPECT_FALSE(registry.Register("/nonexistent/file.ubin").ok());
  // A sidecar path must carry the .umom extension.
  EXPECT_FALSE(
      registry.Register(TestDatasetPath(), "/tmp/not_a_sidecar.bin").ok());
  EXPECT_EQ(registry.size(), 0u);
}

// Writes the fixed-record (all-normal) dataset the cache tests rewrite in
// place: every seed gives a file of the same byte size.
void WriteCacheDataset(const std::string& path, uint64_t seed,
                       std::size_t n = 150) {
  data::SyntheticGenParams params;
  params.n = n;
  params.m = 4;
  params.classes = 3;
  params.family = data::GenFamily::kNormal;
  params.seed = seed;
  ASSERT_TRUE(data::WriteSyntheticDataset(params, path, "cache").ok());
}

std::uintmax_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<std::uintmax_t>(in.tellg());
}

// A moment store handed out before the file changes is a snapshot: the
// rewrite makes the next lookup decode the new bytes, and the old pointer
// still serves the old ones.
TEST(DatasetRegistry, MomentStoreSnapshotSurvivesARewrite) {
  const std::string path = testing::TempDir() + "/uclust_cache_snapshot.ubin";
  WriteCacheDataset(path, 21);
  DatasetRegistry registry;
  auto reg = registry.Register(path);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  EXPECT_EQ(registry.moment_cache_stats().entries, 0u);  // no decode yet

  MomentCacheUse use = MomentCacheUse::kNone;
  auto first = registry.MomentsFor("ds-1", &use);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(use, MomentCacheUse::kFill);
  const std::shared_ptr<const uncertain::MomentStore> old = first.ValueOrDie();
  EXPECT_EQ(old->backend(), uncertain::MomentBackend::kResident);
  const auto rows = [](const uncertain::MomentStore& store) {
    const uncertain::MomentView v = store.view();
    std::vector<double> out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      for (const auto column : {v.mean(i), v.second_moment(i), v.variance(i)}) {
        out.insert(out.end(), column.begin(), column.end());
      }
      out.push_back(v.total_variance(i));
    }
    return out;
  };
  const std::vector<double> old_rows = rows(*old);
  auto again = registry.MomentsFor("ds-1", &use);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(use, MomentCacheUse::kHit);
  EXPECT_EQ(again.ValueOrDie().get(), old.get());

  const std::uintmax_t bytes_before = FileBytes(path);
  WriteCacheDataset(path, 22);
  ASSERT_EQ(FileBytes(path), bytes_before);
  auto fresh = registry.MomentsFor("ds-1", &use);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(use, MomentCacheUse::kFill);
  EXPECT_NE(fresh.ValueOrDie().get(), old.get());
  EXPECT_NE(rows(*fresh.ValueOrDie()), old_rows);

  EXPECT_EQ(rows(*old), old_rows);
  const MomentCacheStats stats = registry.moment_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, (3u * 4u + 1u) * 150u * sizeof(double));
  EXPECT_EQ(stats.fills, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_FALSE(registry.MomentsFor("ds-9").ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------- JobManager --

JobSpec SpecFor(const std::string& dataset_id, std::size_t budget = 0) {
  JobSpec spec;
  spec.dataset_id = dataset_id;
  spec.k = 3;
  spec.engine.memory_budget_bytes = budget;
  return spec;
}

// A runner that blocks until released, tracking concurrency. The latch
// lets tests hold jobs "running" deterministically.
struct BlockingRunner {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};

  JobManagerConfig::Runner AsRunner() {
    return [this](const JobSpec&, const DatasetInfo&,
                  const engine::EngineConfig&) {
      const int now = ++concurrent;
      int prev = peak.load();
      while (prev < now && !peak.compare_exchange_weak(prev, now)) {
      }
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return released; });
      }
      --concurrent;
      return common::Result<clustering::ClusteringResult>(
          clustering::ClusteringResult{});
    };
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

TEST(JobManager, OverBudgetConcurrentJobsSerialize) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  constexpr std::size_t kPool = 1u << 20;
  JobManagerConfig cfg;
  cfg.executors = 2;
  cfg.global_budget_bytes = kPool;
  // Each job wants 3/4 of the pool: two can never run together.
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  cfg.runner_override = [&](const JobSpec&, const DatasetInfo&,
                            const engine::EngineConfig& engine_cfg)
      -> common::Result<clustering::ClusteringResult> {
    // Admission wrote the granted budget into the job's engine config.
    EXPECT_EQ(engine_cfg.memory_budget_bytes, kPool * 3 / 4);
    const int now = ++concurrent;
    int prev = peak.load();
    while (prev < now && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    --concurrent;
    return clustering::ClusteringResult{};
  };
  JobManager manager(&registry, cfg);
  manager.Start();

  auto a = manager.Submit(SpecFor("ds-1", kPool * 3 / 4), "r-a");
  auto b = manager.Submit(SpecFor("ds-1", kPool * 3 / 4), "r-b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(manager.Wait(a.ValueOrDie(), 10000));
  EXPECT_TRUE(manager.Wait(b.ValueOrDie(), 10000));

  const JobMetrics metrics = manager.Metrics();
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.max_running_concurrent, 1u);  // serialized
  EXPECT_EQ(peak.load(), 1);
  EXPECT_GE(metrics.admission_waits, 1u);
  EXPECT_EQ(metrics.budget_in_use_bytes, 0u);
  manager.Stop();
}

TEST(JobManager, WithinBudgetJobsRunConcurrently) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.executors = 2;
  cfg.global_budget_bytes = 1u << 20;
  BlockingRunner runner;
  cfg.runner_override = runner.AsRunner();
  JobManager manager(&registry, cfg);
  manager.Start();

  // Two jobs at 1/4 pool each fit together.
  auto a = manager.Submit(SpecFor("ds-1", 1u << 18), "r-a");
  auto b = manager.Submit(SpecFor("ds-1", 1u << 18), "r-b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Wait until both are held inside the runner, then release.
  for (int i = 0; i < 500 && runner.concurrent.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(runner.concurrent.load(), 2);
  runner.Release();
  EXPECT_TRUE(manager.Wait(a.ValueOrDie(), 10000));
  EXPECT_TRUE(manager.Wait(b.ValueOrDie(), 10000));
  EXPECT_EQ(manager.Metrics().max_running_concurrent, 2u);
  manager.Stop();
}

TEST(JobManager, OverGlobalBudgetRejectedAtSubmit) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.global_budget_bytes = 1u << 20;
  JobManager manager(&registry, cfg);
  manager.Start();

  auto r = manager.Submit(SpecFor("ds-1", 1u << 21), "r-big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kOutOfRange);
  EXPECT_EQ(manager.Metrics().rejected, 1u);
  EXPECT_EQ(manager.Metrics().submitted, 0u);
  manager.Stop();
}

TEST(JobManager, UnbudgetedJobClaimsWholePool) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.executors = 1;
  cfg.global_budget_bytes = 1u << 20;
  BlockingRunner runner;
  cfg.runner_override = runner.AsRunner();
  JobManager manager(&registry, cfg);
  manager.Start();

  auto id = manager.Submit(SpecFor("ds-1", 0), "r-whole");
  ASSERT_TRUE(id.ok());
  auto snap = manager.Get(id.ValueOrDie());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.ValueOrDie().effective_budget_bytes, 1u << 20);
  runner.Release();
  EXPECT_TRUE(manager.Wait(id.ValueOrDie(), 10000));
  manager.Stop();
}

TEST(JobManager, QueueFullRejects) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.executors = 1;
  cfg.queue_capacity = 1;
  BlockingRunner runner;
  cfg.runner_override = runner.AsRunner();
  JobManager manager(&registry, cfg);
  manager.Start();

  // First job occupies the lane; wait until it is actually running so the
  // queue is empty again.
  auto running = manager.Submit(SpecFor("ds-1"), "r-1");
  ASSERT_TRUE(running.ok());
  for (int i = 0; i < 500 && runner.concurrent.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Second fills the queue; third must be rejected.
  ASSERT_TRUE(manager.Submit(SpecFor("ds-1"), "r-2").ok());
  auto overflow = manager.Submit(SpecFor("ds-1"), "r-3");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), common::StatusCode::kOutOfRange);
  EXPECT_NE(overflow.status().message().find("queue full"),
            std::string::npos);
  runner.Release();
  manager.Stop();
}

TEST(JobManager, CancelSemantics) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.executors = 1;
  BlockingRunner runner;
  cfg.runner_override = runner.AsRunner();
  JobManager manager(&registry, cfg);
  manager.Start();

  auto running = manager.Submit(SpecFor("ds-1"), "r-run");
  auto queued = manager.Submit(SpecFor("ds-1"), "r-queued");
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(queued.ok());
  for (int i = 0; i < 500 && runner.concurrent.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Unknown id.
  EXPECT_EQ(manager.Cancel("j-99").code(), common::StatusCode::kNotFound);
  // Running: refused (the API maps this to 409).
  EXPECT_EQ(manager.Cancel(running.ValueOrDie()).code(),
            common::StatusCode::kInvalidArgument);
  // Queued: cancelled, and cancelling again is an idempotent no-op.
  EXPECT_TRUE(manager.Cancel(queued.ValueOrDie()).ok());
  EXPECT_TRUE(manager.Cancel(queued.ValueOrDie()).ok());
  auto snap = manager.Get(queued.ValueOrDie());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.ValueOrDie().state, JobState::kCancelled);
  EXPECT_EQ(manager.Metrics().cancelled, 1u);

  runner.Release();
  EXPECT_TRUE(manager.Wait(running.ValueOrDie(), 10000));
  manager.Stop();
}

TEST(JobManager, FailedJobCarriesError) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.runner_override = [](const JobSpec&, const DatasetInfo&,
                           const engine::EngineConfig&)
      -> common::Result<clustering::ClusteringResult> {
    return common::Status::Internal("synthetic failure");
  };
  JobManager manager(&registry, cfg);
  manager.Start();

  auto id = manager.Submit(SpecFor("ds-1"), "r-fail");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(manager.Wait(id.ValueOrDie(), 10000));
  auto snap = manager.Get(id.ValueOrDie());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.ValueOrDie().state, JobState::kFailed);
  EXPECT_NE(snap.ValueOrDie().error.find("synthetic failure"),
            std::string::npos);
  EXPECT_EQ(manager.Metrics().failed, 1u);
  manager.Stop();
}

TEST(JobManager, UnknownDatasetRejectedAtSubmit) {
  DatasetRegistry registry;
  JobManager manager(&registry, JobManagerConfig{});
  manager.Start();
  auto r = manager.Submit(SpecFor("ds-1"), "r-x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kNotFound);
  manager.Stop();
}

// k above the dataset's n is rejected at submit, before any algorithm could
// index past the objects; k == n still runs.
TEST(JobManager, KAboveNRejectedAtSubmit) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());
  const std::size_t n = registry.Get("ds-1").ValueOrDie().n;
  JobManager manager(&registry, JobManagerConfig{});
  manager.Start();

  JobSpec spec = SpecFor("ds-1");
  spec.algorithm = "UK-medoids";
  spec.k = static_cast<int>(n) + 1;
  auto r = manager.Submit(spec, "r-k");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("k=" + std::to_string(n + 1)),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("n=" + std::to_string(n)),
            std::string::npos)
      << r.status().ToString();

  spec.k = static_cast<int>(n);
  auto id = manager.Submit(spec, "r-kn");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(manager.Wait(id.ValueOrDie(), 30000));
  EXPECT_EQ(manager.Get(id.ValueOrDie()).ValueOrDie().state, JobState::kDone);
  manager.Stop();
}

// ----------------------------------------------------------- golden file --

TEST(ResultJson, MatchesGoldenFile) {
  clustering::ClusteringResult r;
  r.labels = {0, 1, 2, 0, 1, 2, 0, 1};
  r.k_requested = 3;
  r.clusters_found = 3;
  r.iterations = 12;
  r.objective = 352.23825496742165;
  r.online_ms = 4.5;
  r.offline_ms = 1.25;
  r.ed_evaluations = 960;
  r.noise_objects = 0;
  r.pairwise_backend = "tiled";
  r.table_bytes_peak = 8192;
  r.pair_evaluations = 28;
  r.tile_warm_hits = 11;
  r.tile_warm_misses = 3;
  r.pairs_pruned = 7;
  r.center_distance_evals = 288;
  r.bounds_skipped = 96;
  r.index_candidates = 18;
  r.pairs_pruned_by_index = 10;
  r.index_bound_tests = 42;

  const std::string golden_path =
      std::string(UCLUST_GOLDEN_DIR) + "/clustering_result.json";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file: " << golden_path;
  std::ostringstream contents;
  contents << in.rdbuf();

  // Byte-for-byte: field order, formatting, and the fingerprint are all
  // part of the canonical serialization contract.
  EXPECT_EQ(clustering::ResultToJson(r, /*include_labels=*/true),
            contents.str());

  // And the document must stay parseable by our own parser.
  auto parsed = common::ParseJson(contents.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().Find("k_requested")->AsInt(), 3);
  EXPECT_EQ(parsed.ValueOrDie().Find("labels")->items().size(), 8u);
}

// ------------------------------------------------------------- service --

HttpRequest Req(const std::string& method, const std::string& target,
                const std::string& body = "") {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.version = "HTTP/1.1";
  req.body = body;
  return req;
}

std::string RegisterOver(ClusteringService* svc, const std::string& path) {
  HttpResponse reg = svc->Handle(
      Req("POST", "/v1/datasets", "{\"path\": \"" + path + "\"}"));
  EXPECT_EQ(reg.status, 201) << reg.body;
  return common::ParseJson(reg.body).ValueOrDie().Find("id")->AsString();
}

// Submits `algorithm` at k = 3 and returns the job id. max_iters caps
// CK-means only.
std::string SubmitJob(ClusteringService* svc, const std::string& ds_id,
                      const std::string& algorithm, uint64_t seed,
                      const std::string& engine = "{}", int max_iters = 30) {
  HttpResponse submit = svc->Handle(Req(
      "POST", "/v1/jobs",
      "{\"dataset_id\": \"" + ds_id + "\", \"algorithm\": \"" + algorithm +
          "\", \"k\": 3, \"seed\": " + std::to_string(seed) +
          ", \"max_iters\": " + std::to_string(max_iters) +
          ", \"engine\": " + engine + "}"));
  EXPECT_EQ(submit.status, 202) << submit.body;
  return common::ParseJson(submit.body).ValueOrDie().Find("job_id")->AsString();
}

std::string SubmitCkmeans(ClusteringService* svc, const std::string& ds_id,
                          uint64_t seed, const std::string& engine = "{}") {
  return SubmitJob(svc, ds_id, "CK-means", seed, engine);
}

std::string JobFingerprint(ClusteringService* svc, const std::string& job) {
  EXPECT_TRUE(svc->jobs().Wait(job, 30000));
  HttpResponse result = svc->Handle(Req("GET", "/v1/jobs/" + job + "/result"));
  EXPECT_EQ(result.status, 200) << result.body;
  auto json = common::ParseJson(result.body);
  if (!json.ok() || json.ValueOrDie().Find("result") == nullptr) return "";
  return json.ValueOrDie().Find("result")->Find("fingerprint")->AsString();
}

std::string DirectFingerprint(const std::string& path, uint64_t seed) {
  clustering::CkMeans::Params params;
  params.max_iters = 30;
  auto direct = clustering::CkMeans::ClusterFile(path, 3, seed, params);
  EXPECT_TRUE(direct.ok()) << direct.status().ToString();
  if (!direct.ok()) return "direct run failed";
  return clustering::FingerprintHex(clustering::ResultFingerprint(
      direct.ValueOrDie().labels, direct.ValueOrDie().objective));
}

// The library call a service job must reproduce: `algorithm` built by the
// registry, on the dataset read into pdf objects, at k = 3.
std::string LibraryFingerprint(const std::string& algorithm,
                               const std::string& path, uint64_t seed) {
  auto ds = io::ReadUncertainDataset(path);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  if (!ds.ok()) return "read failed";
  const clustering::ClusteringResult r =
      clustering::MakeClustererOrDie(algorithm)->Cluster(ds.ValueOrDie(), 3,
                                                         seed);
  return clustering::FingerprintHex(
      clustering::ResultFingerprint(r.labels, r.objective));
}

// The moment_cache object of GET /v1/metrics.
MomentCacheStats MetricsCache(ClusteringService* svc) {
  HttpResponse metrics = svc->Handle(Req("GET", "/v1/metrics"));
  EXPECT_EQ(metrics.status, 200);
  auto json = common::ParseJson(metrics.body);
  MomentCacheStats stats;
  const common::JsonValue* cache =
      json.ok() ? json.ValueOrDie().Find("moment_cache") : nullptr;
  EXPECT_NE(cache, nullptr) << metrics.body;
  if (cache == nullptr) return stats;
  stats.entries = static_cast<std::size_t>(cache->Find("entries")->AsInt());
  stats.bytes = static_cast<std::size_t>(cache->Find("bytes")->AsInt());
  stats.hits = static_cast<uint64_t>(cache->Find("hits")->AsInt());
  stats.fills = static_cast<uint64_t>(cache->Find("fills")->AsInt());
  stats.invalidations =
      static_cast<uint64_t>(cache->Find("invalidations")->AsInt());
  return stats;
}

// The algorithms whose service jobs run on the dataset's moment store,
// besides CK-means.
constexpr const char* kLocalSearchAlgorithms[] = {"UCPC", "MMVar"};

TEST(ClusteringService, EndToEndMatchesDirectRun) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  ClusteringService svc(cfg);
  svc.jobs().Start();

  // Routes that need no state.
  EXPECT_EQ(svc.Handle(Req("GET", "/healthz")).status, 200);
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/algorithms")).status, 200);
  EXPECT_EQ(svc.Handle(Req("GET", "/nope")).status, 404);
  EXPECT_EQ(svc.Handle(Req("POST", "/v1/jobs", "{oops")).status, 400);
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/jobs/j-404")).status, 404);

  // Register the fixture dataset.
  HttpResponse reg = svc.Handle(
      Req("POST", "/v1/datasets", "{\"path\": \"" + TestDatasetPath() + "\"}"));
  ASSERT_EQ(reg.status, 201) << reg.body;
  auto reg_json = common::ParseJson(reg.body);
  ASSERT_TRUE(reg_json.ok());
  const std::string ds_id = reg_json.ValueOrDie().Find("id")->AsString();
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/datasets/" + ds_id)).status, 200);

  // Submit a CK-means job.
  HttpResponse submit = svc.Handle(Req(
      "POST", "/v1/jobs",
      "{\"dataset_id\": \"" + ds_id +
          "\", \"algorithm\": \"CK-means\", \"k\": 3, \"seed\": 11,"
          " \"max_iters\": 30}"));
  ASSERT_EQ(submit.status, 202) << submit.body;
  auto submit_json = common::ParseJson(submit.body);
  ASSERT_TRUE(submit_json.ok());
  const std::string job_id =
      submit_json.ValueOrDie().Find("job_id")->AsString();

  ASSERT_TRUE(svc.jobs().Wait(job_id, 30000));
  HttpResponse status = svc.Handle(Req("GET", "/v1/jobs/" + job_id));
  ASSERT_EQ(status.status, 200);
  auto status_json = common::ParseJson(status.body);
  ASSERT_TRUE(status_json.ok());
  ASSERT_EQ(status_json.ValueOrDie().Find("state")->AsString(), "done")
      << status.body;

  HttpResponse result = svc.Handle(Req("GET", "/v1/jobs/" + job_id +
                                       "/result"));
  ASSERT_EQ(result.status, 200) << result.body;
  auto result_json = common::ParseJson(result.body);
  ASSERT_TRUE(result_json.ok());
  const common::JsonValue* res = result_json.ValueOrDie().Find("result");
  ASSERT_NE(res, nullptr);
  const std::string service_fp = res->Find("fingerprint")->AsString();

  // The same job run directly in-process must be bit-identical.
  clustering::CkMeans::Params params;
  params.max_iters = 30;
  auto direct = clustering::CkMeans::ClusterFile(TestDatasetPath(), 3, 11,
                                                 params);
  ASSERT_TRUE(direct.ok());
  const std::string direct_fp =
      clustering::FingerprintHex(clustering::ResultFingerprint(
          direct.ValueOrDie().labels, direct.ValueOrDie().objective));
  EXPECT_EQ(service_fp, direct_fp);
  // max_iters caps the CK-means loop on the cached store too.
  params.max_iters = 1;
  auto capped = clustering::CkMeans::ClusterFile(TestDatasetPath(), 3, 11,
                                                 params);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.ValueOrDie().iterations, 1);
  EXPECT_EQ(JobFingerprint(&svc, SubmitJob(&svc, ds_id, "CK-means", 11, "{}",
                                           /*max_iters=*/1)),
            clustering::FingerprintHex(clustering::ResultFingerprint(
                capped.ValueOrDie().labels, capped.ValueOrDie().objective)));
  EXPECT_NE(clustering::FingerprintHex(clustering::ResultFingerprint(
                capped.ValueOrDie().labels, capped.ValueOrDie().objective)),
            direct_fp);

  // Metrics reflect the run. The job filled the cache with the dataset's
  // resident moment store: (3m + 1) * n doubles for n = 120, m = 4.
  HttpResponse metrics = svc.Handle(Req("GET", "/v1/metrics"));
  ASSERT_EQ(metrics.status, 200);
  auto metrics_json = common::ParseJson(metrics.body);
  ASSERT_TRUE(metrics_json.ok());
  EXPECT_GE(metrics_json.ValueOrDie().Find("completed")->AsInt(), 1);
  const MomentCacheStats cache = MetricsCache(&svc);
  EXPECT_EQ(cache.fills, 1u);
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_EQ(cache.bytes, (3u * 4u + 1u) * 120u * sizeof(double));
  svc.Stop();

  // UCPC and MMVar jobs run on the same cached store: on a fresh service
  // the first job fills it and the second hits it, and both equal the
  // library call on the dataset read into objects. max_iters = 1 leaves
  // their default pass cap in place.
  for (const std::string algorithm : kLocalSearchAlgorithms) {
    ClusteringService fresh(cfg);
    fresh.jobs().Start();
    const std::string id = RegisterOver(&fresh, TestDatasetPath());
    const std::string library =
        LibraryFingerprint(algorithm, TestDatasetPath(), 11);
    EXPECT_EQ(JobFingerprint(&fresh, SubmitJob(&fresh, id, algorithm, 11,
                                               "{}", /*max_iters=*/1)),
              library)
        << algorithm << " on a cold cache";
    EXPECT_EQ(MetricsCache(&fresh).fills, 1u) << algorithm;
    EXPECT_EQ(JobFingerprint(&fresh, SubmitJob(&fresh, id, algorithm, 11)),
              library)
        << algorithm << " on a warm cache";
    const MomentCacheStats stats = MetricsCache(&fresh);
    EXPECT_EQ(stats.fills, 1u) << algorithm;
    EXPECT_EQ(stats.hits, 1u) << algorithm;
    fresh.Stop();
  }
  SetLogEnabled(true);
}

// A seed above 2^53 reaches the job exactly: the job runs, and its status
// echoes the seed as sent.
TEST(ClusteringService, SeedAbove2To53RunsAndEchoesExactly) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  ClusteringService svc(cfg);
  svc.jobs().Start();
  HttpResponse reg = svc.Handle(
      Req("POST", "/v1/datasets", "{\"path\": \"" + TestDatasetPath() + "\"}"));
  ASSERT_EQ(reg.status, 201) << reg.body;
  const std::string ds_id =
      common::ParseJson(reg.body).ValueOrDie().Find("id")->AsString();
  HttpResponse submit = svc.Handle(
      Req("POST", "/v1/jobs",
          "{\"dataset_id\": \"" + ds_id +
              "\", \"k\": 3, \"seed\": 9007199254740993}"));
  ASSERT_EQ(submit.status, 202) << submit.body;
  const std::string job_id =
      common::ParseJson(submit.body).ValueOrDie().Find("job_id")->AsString();
  ASSERT_TRUE(svc.jobs().Wait(job_id, 30000));
  HttpResponse status = svc.Handle(Req("GET", "/v1/jobs/" + job_id));
  ASSERT_EQ(status.status, 200);
  auto status_json = common::ParseJson(status.body);
  ASSERT_TRUE(status_json.ok());
  EXPECT_EQ(status_json.ValueOrDie().Find("state")->AsString(), "done")
      << status.body;
  const common::JsonValue* seed =
      status_json.ValueOrDie().Find("spec")->Find("seed");
  ASSERT_NE(seed, nullptr) << status.body;
  EXPECT_TRUE(seed->is_int());
  EXPECT_EQ(seed->AsInt(), 9007199254740993) << status.body;
  svc.Stop();
  SetLogEnabled(true);
}

// A budget below the (3m + 1) * n moment doubles sends a CK-means, UCPC
// or MMVar job to the mapped .umom store: the registered moments_path is
// where the sidecar goes, not the default <dataset>.umom.
TEST(ClusteringService, OverBudgetJobUsesTheRegisteredMomentsPath) {
  SetLogEnabled(false);
  const std::string path = testing::TempDir() + "/uclust_service_mapped.ubin";
  const std::string moments = testing::TempDir() + "/uclust_registered.umom";
  data::SyntheticGenParams params;
  params.n = 200;
  params.m = 5;
  params.classes = 3;
  params.seed = 8;
  ASSERT_TRUE(data::WriteSyntheticDataset(params, path, "mapped").ok());
  std::remove(moments.c_str());
  std::remove((path + ".umom").c_str());

  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  ClusteringService svc(cfg);
  svc.jobs().Start();
  HttpResponse reg = svc.Handle(
      Req("POST", "/v1/datasets",
          "{\"path\": \"" + path + "\", \"moments_path\": \"" + moments +
              "\"}"));
  ASSERT_EQ(reg.status, 201) << reg.body;
  const std::string ds_id =
      common::ParseJson(reg.body).ValueOrDie().Find("id")->AsString();

  // (3 * 5 + 1) * 200 * 8 = 25600 moment bytes against a 1024-byte budget.
  HttpResponse submit = svc.Handle(Req(
      "POST", "/v1/jobs",
      "{\"dataset_id\": \"" + ds_id +
          "\", \"algorithm\": \"CK-means\", \"k\": 3, \"seed\": 5,"
          " \"max_iters\": 30, \"engine\": {\"memory_budget_bytes\": 1024}}"));
  ASSERT_EQ(submit.status, 202) << submit.body;
  const std::string job_id =
      common::ParseJson(submit.body).ValueOrDie().Find("job_id")->AsString();
  ASSERT_TRUE(svc.jobs().Wait(job_id, 30000));
  HttpResponse result =
      svc.Handle(Req("GET", "/v1/jobs/" + job_id + "/result"));
  ASSERT_EQ(result.status, 200) << result.body;
  auto result_json = common::ParseJson(result.body);
  ASSERT_TRUE(result_json.ok());
  const std::string service_fp = result_json.ValueOrDie()
                                     .Find("result")
                                     ->Find("fingerprint")
                                     ->AsString();
  EXPECT_TRUE(std::ifstream(moments).good());
  for (const std::string algorithm : kLocalSearchAlgorithms) {
    EXPECT_EQ(JobFingerprint(&svc, SubmitJob(&svc, ds_id, algorithm, 5,
                                             "{\"memory_budget_bytes\": "
                                             "1024}")),
              LibraryFingerprint(algorithm, path, 5))
        << algorithm;
  }
  EXPECT_EQ(MetricsCache(&svc).fills, 0u);
  svc.Stop();

  EXPECT_TRUE(std::ifstream(moments).good());
  EXPECT_FALSE(std::ifstream(path + ".umom").good());

  clustering::CkMeans::Params direct_params;
  direct_params.max_iters = 30;
  auto direct = clustering::CkMeans::ClusterFile(path, 3, 5, direct_params);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(service_fp,
            clustering::FingerprintHex(clustering::ResultFingerprint(
                direct.ValueOrDie().labels, direct.ValueOrDie().objective)));
  std::remove(moments.c_str());
  std::remove(path.c_str());
  SetLogEnabled(true);
}

// ---------------------------------------------------- moment cache --

// A dataset rewritten in place (same byte size, new content) is re-decoded:
// the next job clusters the new file, not the cached old one.
TEST(MomentCache, RewrittenDatasetIsDecodedAgain) {
  SetLogEnabled(false);
  const std::string path = testing::TempDir() + "/uclust_cache_rewrite.ubin";
  WriteCacheDataset(path, 31);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  ClusteringService svc(cfg);
  svc.jobs().Start();
  const std::string ds_id = RegisterOver(&svc, path);

  EXPECT_EQ(JobFingerprint(&svc, SubmitCkmeans(&svc, ds_id, 4)),
            DirectFingerprint(path, 4));
  EXPECT_EQ(MetricsCache(&svc).fills, 1u);

  const std::uintmax_t bytes_before = FileBytes(path);
  WriteCacheDataset(path, 32);
  ASSERT_EQ(FileBytes(path), bytes_before);
  EXPECT_EQ(JobFingerprint(&svc, SubmitCkmeans(&svc, ds_id, 4)),
            DirectFingerprint(path, 4));
  const MomentCacheStats stats = MetricsCache(&svc);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.fills, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, (3u * 4u + 1u) * 150u * sizeof(double));
  svc.Stop();
  std::remove(path.c_str());
  SetLogEnabled(true);
}

// Eight jobs queued before four executors start race to the empty cache:
// one decodes, the rest wait for it, and every result is the direct one.
// The file is large enough (a decode of milliseconds) for the lanes' first
// lookups to overlap.
TEST(MomentCache, ConcurrentColdStartDecodesOnce) {
  SetLogEnabled(false);
  const std::string path = testing::TempDir() + "/uclust_cache_cold.ubin";
  WriteCacheDataset(path, 51, 20000);
  ServiceConfig cfg;
  cfg.jobs.executors = 4;
  ClusteringService svc(cfg);
  const std::string ds_id = RegisterOver(&svc, path);
  std::vector<std::string> jobs;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    jobs.push_back(SubmitCkmeans(&svc, ds_id, seed));
  }
  svc.jobs().Start();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(JobFingerprint(&svc, jobs[seed - 1]),
              DirectFingerprint(path, seed))
        << "seed " << seed;
  }
  const MomentCacheStats stats = MetricsCache(&svc);
  EXPECT_EQ(stats.fills, 1u);
  EXPECT_EQ(stats.hits, 7u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  svc.Stop();
  std::remove(path.c_str());
  SetLogEnabled(true);
}

// Under a global budget the cache stays empty (its bytes would escape
// admission control); a job budget below the moment columns takes the
// mapped store and creates no entry either. Both still match the library.
TEST(MomentCache, BudgetsKeepJobsOutOfTheCache) {
  SetLogEnabled(false);
  {
    ServiceConfig cfg;
    cfg.jobs.executors = 2;
    cfg.jobs.global_budget_bytes = std::size_t{64} << 20;
    ClusteringService svc(cfg);
    svc.jobs().Start();
    const std::string ds_id = RegisterOver(&svc, TestDatasetPath());
    for (uint64_t seed : {3u, 3u, 5u}) {
      EXPECT_EQ(JobFingerprint(&svc, SubmitCkmeans(&svc, ds_id, seed)),
                DirectFingerprint(TestDatasetPath(), seed));
    }
    for (const std::string algorithm : kLocalSearchAlgorithms) {
      EXPECT_EQ(JobFingerprint(&svc, SubmitJob(&svc, ds_id, algorithm, 3)),
                LibraryFingerprint(algorithm, TestDatasetPath(), 3))
          << algorithm;
    }
    const MomentCacheStats stats = MetricsCache(&svc);
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.fills + stats.hits, 0u);
    svc.Stop();
  }
  {
    const std::string path = testing::TempDir() + "/uclust_cache_mapped.ubin";
    WriteCacheDataset(path, 41);
    const std::string moments = path + ".umom";
    std::remove(moments.c_str());
    ServiceConfig cfg;
    cfg.jobs.executors = 1;
    ClusteringService svc(cfg);
    svc.jobs().Start();
    const std::string ds_id = RegisterOver(&svc, path);
    // (3 * 4 + 1) * 150 * 8 = 15600 moment bytes against 1024.
    EXPECT_EQ(JobFingerprint(&svc, SubmitCkmeans(&svc, ds_id, 6,
                                                 "{\"memory_budget_bytes\": "
                                                 "1024}")),
              DirectFingerprint(path, 6));
    EXPECT_TRUE(std::ifstream(moments).good());  // the mapped branch ran
    const MomentCacheStats stats = MetricsCache(&svc);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.fills, 0u);
    svc.Stop();
    std::remove(moments.c_str());
    std::remove(path.c_str());
  }
  SetLogEnabled(true);
}

// Over HTTP, a job with k = n + 1 is a 400 naming both values, and the
// server keeps answering.
TEST(ClusteringService, KAboveNIsABadRequest) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  ClusteringService svc(cfg);
  svc.jobs().Start();

  HttpResponse reg = svc.Handle(
      Req("POST", "/v1/datasets", "{\"path\": \"" + TestDatasetPath() + "\"}"));
  ASSERT_EQ(reg.status, 201) << reg.body;
  auto reg_json = common::ParseJson(reg.body);
  ASSERT_TRUE(reg_json.ok());
  const std::string ds_id = reg_json.ValueOrDie().Find("id")->AsString();
  const int64_t n = reg_json.ValueOrDie().Find("n")->AsInt();

  HttpResponse submit = svc.Handle(Req(
      "POST", "/v1/jobs",
      "{\"dataset_id\": \"" + ds_id +
          "\", \"algorithm\": \"UK-medoids\", \"k\": " +
          std::to_string(n + 1) + "}"));
  EXPECT_EQ(submit.status, 400) << submit.body;
  EXPECT_NE(submit.body.find("k=" + std::to_string(n + 1)), std::string::npos)
      << submit.body;
  EXPECT_NE(submit.body.find("n=" + std::to_string(n)), std::string::npos)
      << submit.body;
  EXPECT_EQ(svc.Handle(Req("GET", "/healthz")).status, 200);

  svc.Stop();
  SetLogEnabled(true);
}

TEST(ClusteringService, ResultBeforeDoneAndCancelConflicts) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  BlockingRunner runner;
  cfg.jobs.runner_override = runner.AsRunner();
  ClusteringService svc(cfg);
  svc.jobs().Start();

  HttpResponse reg = svc.Handle(
      Req("POST", "/v1/datasets", "{\"path\": \"" + TestDatasetPath() + "\"}"));
  ASSERT_EQ(reg.status, 201);
  const std::string ds_id =
      common::ParseJson(reg.body).ValueOrDie().Find("id")->AsString();

  HttpResponse submit = svc.Handle(
      Req("POST", "/v1/jobs",
          "{\"dataset_id\": \"" + ds_id + "\", \"k\": 3}"));
  ASSERT_EQ(submit.status, 202);
  const std::string job_id =
      common::ParseJson(submit.body).ValueOrDie().Find("job_id")->AsString();
  for (int i = 0; i < 500 && runner.concurrent.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // The job is held "running": result is 409, as is cancelling it.
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/jobs/" + job_id + "/result")).status,
            409);
  EXPECT_EQ(svc.Handle(Req("DELETE", "/v1/jobs/" + job_id)).status, 409);

  runner.Release();
  ASSERT_TRUE(svc.jobs().Wait(job_id, 10000));
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/jobs/" + job_id + "/result")).status,
            200);
  // Cancelling a terminal job is an idempotent success.
  EXPECT_EQ(svc.Handle(Req("DELETE", "/v1/jobs/" + job_id)).status, 200);

  svc.Stop();
  SetLogEnabled(true);
}

// ------------------------------------------------------- packed result --

// A result with every scalar field set, carrying `labels`.
clustering::ClusteringResult ResultWithLabels(std::vector<int> labels) {
  clustering::ClusteringResult r;
  r.labels = std::move(labels);
  r.k_requested = 3;
  r.clusters_found = 2;
  r.iterations = 7;
  r.objective = 0.1 + 0.2;
  r.online_ms = 2.5;
  r.offline_ms = 0.75;
  r.ed_evaluations = 31;
  r.noise_objects = 2;
  r.pairwise_backend = "tiled";
  r.table_bytes_peak = 4096;
  r.pair_evaluations = 55;
  r.tile_warm_hits = 5;
  r.tile_warm_misses = 6;
  r.pairs_pruned = 8;
  r.center_distance_evals = 90;
  r.bounds_skipped = 30;
  r.index_candidates = 12;
  r.pairs_pruned_by_index = 9;
  r.index_bound_tests = 21;
  return r;
}

struct LabelCase {
  const char* name;
  std::vector<int> labels;
  int width;  // bytes per packed label
};

const std::vector<LabelCase>& LabelCases() {
  static const std::vector<LabelCase> cases = {
      {"labels in [0, 255]", {0, 255, 17, 3, 255, 0, 128}, 1},
      {"labels from 256", {0, 256, 300, 65535, 1}, 2},
      {"labels from 65536", {0, 65536, 70000, 2}, 4},
      {"noise labels", {-1, 0, 2, -1, 1, 254}, 1},
      {"wide negative labels", {-300, 5, -1}, 2},
      {"int extremes", {INT_MIN, INT_MAX, 0}, 4},
      {"no objects", {}, 1},
  };
  return cases;
}

// Every label shape packs to its narrowest width, keeps no labels without
// include_labels, and renders the original result's bytes either way.
TEST(PackedResult, RendersTheOriginalBytesAtTheNarrowestWidth) {
  for (const LabelCase& c : LabelCases()) {
    const clustering::ClusteringResult r = ResultWithLabels(c.labels);
    for (const bool include : {true, false}) {
      const clustering::PackedResult packed =
          clustering::PackResult(r, include);
      common::JsonWriter w;
      clustering::AppendResultJson(&w, packed);
      EXPECT_EQ(w.str(), clustering::ResultToJson(r, include))
          << c.name << " include_labels=" << include;
      EXPECT_EQ(packed.fingerprint,
                clustering::ResultFingerprint(r.labels, r.objective))
          << c.name;
      EXPECT_EQ(packed.label_width, include ? c.width : 0) << c.name;
      EXPECT_EQ(packed.packed_labels.size(),
                include ? c.labels.size() * c.width : 0u)
          << c.name;
      EXPECT_EQ(packed.RetainedBytes(),
                sizeof(clustering::PackedResult) + packed.packed_labels.size());
      EXPECT_TRUE(packed.scalars.labels.empty()) << c.name;
    }
  }
}

// Through the service, a job's GET .../result body is the wrapper around
// AppendResultJson of the result its runner returned, byte for byte, for
// every label shape with and without labels. Without labels the
// fingerprint is still there, and GET /v1/jobs/{id} carries no result.
TEST(ClusteringService, ResultRouteRendersThePackedRecordExactly) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  // The spec's seed picks the label case.
  cfg.jobs.runner_override = [](const JobSpec& spec, const DatasetInfo&,
                                const engine::EngineConfig&)
      -> common::Result<clustering::ClusteringResult> {
    return ResultWithLabels(LabelCases()[spec.seed].labels);
  };
  ClusteringService svc(cfg);
  svc.jobs().Start();
  const std::string ds_id = RegisterOver(&svc, TestDatasetPath());

  for (std::size_t i = 0; i < LabelCases().size(); ++i) {
    const clustering::ClusteringResult original =
        ResultWithLabels(LabelCases()[i].labels);
    for (const bool include : {true, false}) {
      HttpResponse submit = svc.Handle(Req(
          "POST", "/v1/jobs",
          "{\"dataset_id\": \"" + ds_id + "\", \"k\": 3, \"seed\": " +
              std::to_string(i) + ", \"include_labels\": " +
              (include ? "true" : "false") + "}"));
      ASSERT_EQ(submit.status, 202) << submit.body;
      const std::string job_id = common::ParseJson(submit.body)
                                     .ValueOrDie()
                                     .Find("job_id")
                                     ->AsString();
      ASSERT_TRUE(svc.jobs().Wait(job_id, 10000));

      HttpResponse result =
          svc.Handle(Req("GET", "/v1/jobs/" + job_id + "/result"));
      ASSERT_EQ(result.status, 200) << result.body;
      common::JsonWriter expected;
      expected.BeginObject();
      expected.KV("job_id", job_id);
      expected.KV("algorithm", "CK-means");
      expected.KV("dataset_id", ds_id);
      expected.Key("result");
      clustering::AppendResultJson(&expected, original, include);
      expected.EndObject();
      EXPECT_EQ(result.body, expected.str() + "\n")
          << LabelCases()[i].name << " include_labels=" << include;
      const common::JsonValue parsed =
          common::ParseJson(result.body).ValueOrDie();
      const common::JsonValue* res = parsed.Find("result");
      ASSERT_NE(res, nullptr);
      EXPECT_EQ(res->Find("fingerprint")->AsString(),
                clustering::FingerprintHex(clustering::ResultFingerprint(
                    original.labels, original.objective)));
      EXPECT_EQ(res->Find("labels") != nullptr, include);

      // The status body keeps exactly its fields, and repeats unchanged.
      HttpResponse status = svc.Handle(Req("GET", "/v1/jobs/" + job_id));
      ASSERT_EQ(status.status, 200) << status.body;
      const common::JsonValue status_json =
          common::ParseJson(status.body).ValueOrDie();
      std::vector<std::string> keys;
      for (const auto& member : status_json.members()) {
        keys.push_back(member.first);
      }
      EXPECT_EQ(keys, (std::vector<std::string>{
                          "id", "state", "request_id", "dataset_id",
                          "effective_budget_bytes", "spec", "queued_ms",
                          "started_ms", "finished_ms"}));
      EXPECT_EQ(svc.Handle(Req("GET", "/v1/jobs/" + job_id)).body,
                status.body);
    }
  }
  svc.Stop();
  SetLogEnabled(true);
}

// The retained-result gauges of GET /v1/metrics: a k = 3 CK-means job keeps
// one byte per object plus the record's fixed part, and a job without
// include_labels keeps the fixed part alone.
TEST(ClusteringService, MetricsCountRetainedResultBytes) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  ClusteringService svc(cfg);
  svc.jobs().Start();
  const std::string ds_id = RegisterOver(&svc, TestDatasetPath());
  const auto gauges = [&svc]() {
    HttpResponse metrics = svc.Handle(Req("GET", "/v1/metrics"));
    EXPECT_EQ(metrics.status, 200);
    const common::JsonValue json = common::ParseJson(metrics.body).ValueOrDie();
    return std::make_pair(json.Find("results_retained")->AsInt(),
                          json.Find("result_bytes_retained")->AsInt());
  };
  EXPECT_EQ(gauges(), std::make_pair(int64_t{0}, int64_t{0}));

  const int64_t fixed = sizeof(clustering::PackedResult);
  const int64_t n = 120;  // the fixture dataset's object count
  EXPECT_FALSE(JobFingerprint(&svc, SubmitCkmeans(&svc, ds_id, 2)).empty());
  EXPECT_EQ(gauges(), std::make_pair(int64_t{1}, fixed + n));

  HttpResponse submit = svc.Handle(
      Req("POST", "/v1/jobs",
          "{\"dataset_id\": \"" + ds_id +
              "\", \"k\": 3, \"seed\": 2, \"include_labels\": false}"));
  ASSERT_EQ(submit.status, 202) << submit.body;
  const std::string job_id =
      common::ParseJson(submit.body).ValueOrDie().Find("job_id")->AsString();
  EXPECT_FALSE(JobFingerprint(&svc, job_id).empty());
  EXPECT_EQ(gauges(), std::make_pair(int64_t{2}, 2 * fixed + n));
  svc.Stop();
  SetLogEnabled(true);
}

// Ids resolve by parsing, not by a scan: "j-" and the 1-based index in
// decimal without leading zeros. Everything else is NotFound, and a 404
// over HTTP, exactly as an id no job carries.
TEST(JobManager, MalformedAndOutOfRangeIdsAreNotFound) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  cfg.jobs.runner_override = [](const JobSpec&, const DatasetInfo&,
                                const engine::EngineConfig&)
      -> common::Result<clustering::ClusteringResult> {
    return ResultWithLabels({0, 1, 2});
  };
  ClusteringService svc(cfg);
  svc.jobs().Start();
  const std::string ds_id = RegisterOver(&svc, TestDatasetPath());
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(SubmitCkmeans(&svc, ds_id, i));
  ASSERT_EQ(ids.front(), "j-1");
  ASSERT_EQ(ids.back(), "j-12");
  for (const std::string& id : ids) {
    ASSERT_TRUE(svc.jobs().Wait(id, 10000)) << id;
    auto snap = svc.jobs().Get(id);
    ASSERT_TRUE(snap.ok()) << id;
    EXPECT_EQ(snap.ValueOrDie().id, id);
    EXPECT_EQ(snap.ValueOrDie().state, JobState::kDone);
  }

  for (const std::string bad :
       {"j-0", "j-", "j-01", "j-12x", "x-1", "j-13", "j-99",
        "j-18446744073709551615", "j-18446744073709551616",
        "j-99999999999999999999999", "j--1", "j-+1", "J-1", "j-1 ", "-1",
        ""}) {
    EXPECT_EQ(svc.jobs().Get(bad).status().code(),
              common::StatusCode::kNotFound)
        << "\"" << bad << "\"";
    EXPECT_EQ(svc.jobs().Cancel(bad).code(), common::StatusCode::kNotFound)
        << "\"" << bad << "\"";
    EXPECT_FALSE(svc.jobs().Wait(bad, 0)) << "\"" << bad << "\"";
    if (bad.empty() || bad.find(' ') != std::string::npos) continue;
    EXPECT_EQ(svc.Handle(Req("GET", "/v1/jobs/" + bad)).status, 404) << bad;
    EXPECT_EQ(svc.Handle(Req("GET", "/v1/jobs/" + bad + "/result")).status,
              404)
        << bad;
    EXPECT_EQ(svc.Handle(Req("DELETE", "/v1/jobs/" + bad)).status, 404)
        << bad;
  }
  svc.Stop();
  SetLogEnabled(true);
}

}  // namespace
}  // namespace uclust::service
