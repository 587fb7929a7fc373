// serve: the long-lived clustering service. Hosts the versioned REST API
// of service::ClusteringService (see docs/service.md for the route table,
// job lifecycle, and budget semantics) on a loopback-default listener:
//
//   serve --port=8080 --executors=2 --global_budget_mb=256
//   curl -s -X POST localhost:8080/v1/datasets -d '{"path": "data.ubin"}'
//   curl -s -X POST localhost:8080/v1/jobs -d '{"dataset_id": "ds-1", "k": 8}'
//   curl -s localhost:8080/v1/jobs/j-1/result
//
// Flags:
//   --port=N              listen port; 0 = ephemeral       (default 8080)
//   --bind=ADDR           bind address                     (default 127.0.0.1)
//   --http_workers=N      HTTP worker threads              (default 4)
//   --executors=N         concurrent job lanes             (default 2)
//   --queue_capacity=N    max queued jobs                  (default 32)
//   --global_budget_mb=N  admission-control memory pool;
//                         0 = unlimited                    (default 0)
//   --register=PATH       pre-register one dataset at boot
//   --register_moments=PATH.umom   its optional moment sidecar
//   --register_samples=PATH.usmp   its optional sample sidecar
//
// Prints `SERVE LISTENING port=<port>` once routable (CI and scripts parse
// it — with --port=0 this is the only way to learn the bound port), then
// runs until SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "common/cli.h"
#include "service/service.h"

namespace {

using namespace uclust;  // NOLINT: tool brevity

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);

  service::ServiceConfig cfg;
  cfg.http.port = static_cast<int>(args.GetInt("port", 8080));
  cfg.http.bind_address = args.GetString("bind", "127.0.0.1");
  cfg.http.worker_threads =
      static_cast<std::size_t>(args.GetInt("http_workers", 4));
  cfg.jobs.executors = static_cast<int>(args.GetInt("executors", 2));
  cfg.jobs.queue_capacity =
      static_cast<std::size_t>(args.GetInt("queue_capacity", 32));
  cfg.jobs.global_budget_bytes =
      static_cast<std::size_t>(args.GetInt("global_budget_mb", 0)) * 1024 *
      1024;

  service::ClusteringService svc(std::move(cfg));

  const std::string preregister = args.GetString("register", "");
  if (!preregister.empty()) {
    common::Result<service::DatasetInfo> info = svc.registry().Register(
        preregister, args.GetString("register_moments", ""),
        args.GetString("register_samples", ""));
    if (!info.ok()) {
      std::fprintf(stderr, "serve: %s\n", info.status().ToString().c_str());
      return 1;
    }
    std::printf("[serve] registered %s -> %s (n=%zu m=%zu)\n",
                preregister.c_str(), info.ValueOrDie().id.c_str(),
                info.ValueOrDie().n, info.ValueOrDie().m);
  }

  common::Status st = svc.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("SERVE LISTENING port=%d\n", svc.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    ::usleep(100 * 1000);
  }
  std::printf("[serve] shutting down\n");
  svc.Stop();
  return 0;
}
