// ClusteringService: the clustering-as-a-service facade. Owns the dataset
// registry, the async job manager, and the HTTP front end, and maps the
// versioned REST surface onto them:
//
//   GET    /healthz              liveness ("ok" once routable)
//   GET    /v1/algorithms        registered clusterer names
//   POST   /v1/datasets          {"path": ..., "moments_path"?: ...,
//                                 "samples_path"?: ...} -> 201
//   GET    /v1/datasets          registration list
//   GET    /v1/datasets/{id}     one registration
//   POST   /v1/jobs              JobSpec body -> 202 {"job_id", "state"}
//   GET    /v1/jobs/{id}         job status (state machine + spec echo)
//   GET    /v1/jobs/{id}/result  canonical ClusteringResult JSON (409 until
//                                the job is done)
//   DELETE /v1/jobs/{id}         cancel a queued job (409 when running)
//   GET    /v1/metrics           job counters/gauges, admission stats and
//                                the decoded-moment cache
//
// Handle() is public and socket-free: tests and the in-process smoke bench
// drive the full route surface directly, while tools/serve wires it behind
// HttpServer. Every request gets a correlation id ("r-N") that is logged
// with the request, stored on any job it submits, and echoed in bodies.
#ifndef UCLUST_SERVICE_SERVICE_H_
#define UCLUST_SERVICE_SERVICE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "service/dataset_registry.h"
#include "service/http_server.h"
#include "service/job_manager.h"

namespace uclust::service {

struct ServiceConfig {
  HttpServerConfig http;
  JobManagerConfig jobs;
};

class ClusteringService {
 public:
  explicit ClusteringService(ServiceConfig cfg);
  ~ClusteringService();

  ClusteringService(const ClusteringService&) = delete;
  ClusteringService& operator=(const ClusteringService&) = delete;

  /// Starts the job executors and binds the HTTP listener.
  common::Status Start();
  /// Stops the listener, drains running jobs, joins everything.
  void Stop();

  /// The bound HTTP port (after Start()).
  int port() const { return server_ ? server_->port() : 0; }

  /// Full route dispatch, no sockets involved.
  HttpResponse Handle(const HttpRequest& req);

  DatasetRegistry& registry() { return registry_; }
  JobManager& jobs() { return *jobs_; }

 private:
  HttpResponse Route(const HttpRequest& req, const std::string& request_id);
  HttpResponse HandleDatasets(const HttpRequest& req, const std::string& id);
  HttpResponse HandleJobs(const HttpRequest& req, const std::string& id,
                          const std::string& sub,
                          const std::string& request_id);
  HttpResponse HandleMetrics() const;

  ServiceConfig cfg_;
  DatasetRegistry registry_;
  std::unique_ptr<JobManager> jobs_;
  std::unique_ptr<HttpServer> server_;
};

}  // namespace uclust::service

#endif  // UCLUST_SERVICE_SERVICE_H_
