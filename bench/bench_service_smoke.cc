// Service smoke: proves the clustering service end to end, with the
// machine-readable SERVICE RESULT= marker CI greps (same scheme as the
// other *_smoke benches). Two phases, both must pass:
//
//   1. Loopback e2e exactness. Starts a real ClusteringService on an
//      ephemeral port, registers the dataset and submits a CK-means job
//      over actual HTTP, polls to completion, and compares the result
//      fingerprint served by GET /v1/jobs/{id}/result against a direct
//      in-process CkMeans::ClusterFile run of the identical spec. The two
//      must be bit-identical (the fingerprint hashes every label and the
//      objective bits) — the service layer may add queueing and JSON, but
//      never a different answer.
//   2. Admission serialization. A JobManager with a finite global budget
//      and a deterministic latched runner gets two jobs that each need
//      more than half the pool: they must run strictly one at a time
//      (max_running_concurrent == 1, admission_waits >= 1) and both
//      complete; a third job over the whole pool must be rejected at
//      submit.
//
// Flags:
//   --dataset=PATH   binary dataset file              (required)
//   --k=K            clusters                         (default 8)
//   --max_iters=I    Lloyd iteration cap              (default 30)
//   --seed=S         clustering seed                  (default 1)
//   --threads=N --block_size=B ...                    engine knobs (the
//                    submitted job carries them, so the service run and
//                    the direct run use one configuration)
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "clustering/ckmeans.h"
#include "clustering/result_json.h"
#include "common/cli.h"
#include "common/json.h"
#include "service/http_client.h"
#include "service/service.h"

namespace {

using namespace uclust;  // NOLINT: bench brevity

constexpr const char* kFail = "SERVICE RESULT=FAIL\n";

bool PhaseLoopback(const std::string& dataset, int k, int max_iters,
                   uint64_t seed, const engine::EngineConfig& engine_cfg) {
  service::ServiceConfig cfg;
  cfg.http.port = 0;  // ephemeral
  cfg.jobs.executors = 2;
  service::ClusteringService svc(std::move(cfg));
  common::Status st = svc.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "service smoke: %s\n", st.ToString().c_str());
    return false;
  }
  const int port = svc.port();
  std::printf("[service smoke] listening on 127.0.0.1:%d\n", port);

  // Register the dataset over HTTP.
  common::JsonWriter reg;
  reg.BeginObject();
  reg.KV("path", dataset);
  reg.EndObject();
  auto reg_resp =
      service::HttpFetch(port, "POST", "/v1/datasets", reg.str());
  if (!reg_resp.ok() || reg_resp.ValueOrDie().status != 201) {
    std::fprintf(stderr, "service smoke: dataset registration failed: %s\n",
                 reg_resp.ok() ? reg_resp.ValueOrDie().body.c_str()
                               : reg_resp.status().ToString().c_str());
    return false;
  }
  auto reg_json = common::ParseJson(reg_resp.ValueOrDie().body);
  if (!reg_json.ok() || reg_json.ValueOrDie().Find("id") == nullptr) {
    std::fprintf(stderr, "service smoke: bad registration body\n");
    return false;
  }
  const std::string dataset_id = reg_json.ValueOrDie().Find("id")->AsString();

  // Submit the job, carrying the engine knobs so the service-side run is
  // configured exactly like the direct run below.
  common::JsonWriter spec;
  spec.BeginObject();
  spec.KV("dataset_id", dataset_id);
  spec.KV("algorithm", "CK-means");
  spec.KV("k", k);
  spec.KV("seed", static_cast<int64_t>(seed));
  spec.KV("max_iters", max_iters);
  spec.Key("engine");
  spec.BeginObject();
  spec.KV("threads", engine_cfg.num_threads);
  spec.KV("block_size", engine_cfg.block_size);
  spec.EndObject();
  spec.EndObject();
  auto submit = service::HttpFetch(port, "POST", "/v1/jobs", spec.str());
  if (!submit.ok() || submit.ValueOrDie().status != 202) {
    std::fprintf(stderr, "service smoke: submit failed: %s\n",
                 submit.ok() ? submit.ValueOrDie().body.c_str()
                             : submit.status().ToString().c_str());
    return false;
  }
  auto submit_json = common::ParseJson(submit.ValueOrDie().body);
  if (!submit_json.ok() || submit_json.ValueOrDie().Find("job_id") == nullptr) {
    std::fprintf(stderr, "service smoke: bad submit body\n");
    return false;
  }
  const std::string job_id =
      submit_json.ValueOrDie().Find("job_id")->AsString();

  // Poll over HTTP until terminal (cap ~60 s).
  std::string state = "queued";
  for (int poll = 0; poll < 3000; ++poll) {
    auto status = service::HttpFetch(port, "GET", "/v1/jobs/" + job_id);
    if (!status.ok() || status.ValueOrDie().status != 200) {
      std::fprintf(stderr, "service smoke: status poll failed\n");
      return false;
    }
    auto body = common::ParseJson(status.ValueOrDie().body);
    if (!body.ok() || body.ValueOrDie().Find("state") == nullptr) {
      std::fprintf(stderr, "service smoke: bad status body\n");
      return false;
    }
    state = body.ValueOrDie().Find("state")->AsString();
    if (state == "done" || state == "failed" || state == "cancelled") break;
    ::usleep(20 * 1000);
  }
  if (state != "done") {
    std::fprintf(stderr, "service smoke: job ended as %s\n", state.c_str());
    return false;
  }

  auto result =
      service::HttpFetch(port, "GET", "/v1/jobs/" + job_id + "/result");
  if (!result.ok() || result.ValueOrDie().status != 200) {
    std::fprintf(stderr, "service smoke: result fetch failed\n");
    return false;
  }
  auto result_json = common::ParseJson(result.ValueOrDie().body);
  if (!result_json.ok()) {
    std::fprintf(stderr, "service smoke: result body is not JSON\n");
    return false;
  }
  const common::JsonValue* payload = result_json.ValueOrDie().Find("result");
  if (payload == nullptr || payload->Find("fingerprint") == nullptr) {
    std::fprintf(stderr, "service smoke: result body lacks a fingerprint\n");
    return false;
  }
  const std::string service_fp = payload->Find("fingerprint")->AsString();
  svc.Stop();

  // The same spec, run directly — the bit-identity reference.
  clustering::CkMeans::Params params;
  params.max_iters = max_iters;
  engine::Engine eng(engine_cfg);
  auto direct =
      clustering::CkMeans::ClusterFile(dataset, k, seed, params, eng);
  if (!direct.ok()) {
    std::fprintf(stderr, "service smoke: direct run failed: %s\n",
                 direct.status().ToString().c_str());
    return false;
  }
  const clustering::ClusteringResult& ref = direct.ValueOrDie();
  const std::string direct_fp = clustering::FingerprintHex(
      clustering::ResultFingerprint(ref.labels, ref.objective));

  std::printf("SERVICE FINGERPRINT=%s\n", service_fp.c_str());
  std::printf("DIRECT FINGERPRINT=%s\n", direct_fp.c_str());
  if (service_fp != direct_fp) {
    std::fprintf(stderr,
                 "service smoke: loopback result diverged from the direct "
                 "run (bit-identity contract broken)\n");
    return false;
  }
  std::printf("[service smoke] loopback e2e bit-identical (n=%zu)\n",
              ref.labels.size());
  return true;
}

bool PhaseAdmission(const std::string& dataset) {
  service::DatasetRegistry registry;
  auto info = registry.Register(dataset);
  if (!info.ok()) {
    std::fprintf(stderr, "service smoke: %s\n",
                 info.status().ToString().c_str());
    return false;
  }

  constexpr std::size_t kPool = 1 << 20;       // 1 MiB global budget
  constexpr std::size_t kJob = (kPool * 3) / 4;  // each job needs 3/4 of it

  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  service::JobManagerConfig cfg;
  cfg.executors = 2;  // two free lanes — only the budget serializes them
  cfg.global_budget_bytes = kPool;
  cfg.runner_override = [&](const service::JobSpec&,
                            const service::DatasetInfo&,
                            const engine::EngineConfig&)
      -> common::Result<clustering::ClusteringResult> {
    const int now = concurrent.fetch_add(1) + 1;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    ::usleep(50 * 1000);
    concurrent.fetch_sub(1);
    clustering::ClusteringResult r;
    r.labels = {0};
    r.clusters_found = 1;
    return r;
  };
  service::JobManager manager(&registry, cfg);
  manager.Start();

  service::JobSpec spec;
  spec.dataset_id = info.ValueOrDie().id;
  spec.algorithm = "CK-means";
  spec.k = 1;
  spec.engine.memory_budget_bytes = kJob;
  auto a = manager.Submit(spec, "smoke-a");
  auto b = manager.Submit(spec, "smoke-b");
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "service smoke: admission submits failed\n");
    return false;
  }

  // Over the whole pool: must be rejected at submit, not queued.
  service::JobSpec over = spec;
  over.engine.memory_budget_bytes = kPool * 2;
  auto rejected = manager.Submit(over, "smoke-over");
  if (rejected.ok() ||
      rejected.status().code() != common::StatusCode::kOutOfRange) {
    std::fprintf(stderr,
                 "service smoke: over-budget job was not rejected at "
                 "submit\n");
    return false;
  }

  if (!manager.Wait(a.ValueOrDie(), 30000) ||
      !manager.Wait(b.ValueOrDie(), 30000)) {
    std::fprintf(stderr, "service smoke: admission jobs timed out\n");
    return false;
  }
  const service::JobMetrics m = manager.Metrics();
  manager.Stop();

  std::printf("[service smoke] admission: completed=%llu "
              "max_running_concurrent=%zu admission_waits=%llu "
              "rejected=%llu (runner peak=%d)\n",
              static_cast<unsigned long long>(m.completed),
              m.max_running_concurrent,
              static_cast<unsigned long long>(m.admission_waits),
              static_cast<unsigned long long>(m.rejected), peak.load());
  if (m.completed != 2 || m.max_running_concurrent != 1 || peak.load() != 1 ||
      m.admission_waits < 1 || m.rejected != 1) {
    std::fprintf(stderr,
                 "service smoke: over-budget jobs did not serialize\n");
    return false;
  }
  std::printf("SERVICE ADMISSION=OK\n");
  return true;
}

int Run(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::string dataset = args.GetString("dataset", "");
  if (dataset.empty()) {
    std::fprintf(stderr, "service smoke: --dataset=PATH is required\n");
    return 1;
  }
  const int k = static_cast<int>(args.GetInt("k", 8));
  const int max_iters = static_cast<int>(args.GetInt("max_iters", 30));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  engine::EngineConfig engine_cfg;
  common::Status st = common::ParseEngineFlags(args, &engine_cfg);
  if (!st.ok()) {
    std::fprintf(stderr, "service smoke: %s\n", st.ToString().c_str());
    return 1;
  }

  if (!PhaseLoopback(dataset, k, max_iters, seed, engine_cfg)) {
    std::printf(kFail);
    return 1;
  }
  if (!PhaseAdmission(dataset)) {
    std::printf(kFail);
    return 1;
  }
  std::printf("SERVICE RESULT=OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
