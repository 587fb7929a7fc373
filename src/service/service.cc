#include "service/service.h"

#include <vector>

#include "clustering/registry.h"
#include "clustering/result_json.h"
#include "common/json.h"
#include "service/log.h"

namespace uclust::service {

namespace {

HttpResponse ErrorResponse(int status, const std::string& message) {
  common::JsonWriter w;
  w.BeginObject();
  w.KV("error", message);
  w.EndObject();
  HttpResponse resp;
  resp.status = status;
  resp.body = w.str() + "\n";
  return resp;
}

/// Default Status -> HTTP mapping; routes override where a code means
/// something more specific (e.g. Cancel's InvalidArgument is a 409).
int StatusToHttp(const common::Status& st) {
  switch (st.code()) {
    case common::StatusCode::kOk: return 200;
    case common::StatusCode::kInvalidArgument: return 400;
    case common::StatusCode::kOutOfRange: return 429;
    case common::StatusCode::kNotFound: return 404;
    case common::StatusCode::kIOError: return 500;
    case common::StatusCode::kInternal: return 500;
  }
  return 500;
}

HttpResponse StatusResponse(const common::Status& st) {
  return ErrorResponse(StatusToHttp(st), st.ToString());
}

void AppendDatasetJson(common::JsonWriter* w, const DatasetInfo& info) {
  w->BeginObject();
  w->KV("id", info.id);
  w->KV("path", info.path);
  w->KV("name", info.name);
  w->KV("n", info.n);
  w->KV("m", info.m);
  w->KV("num_classes", info.num_classes);
  w->KV("has_labels", info.has_labels);
  w->KV("file_bytes", static_cast<int64_t>(info.file_bytes));
  w->KV("moments_path", info.moments_path);
  w->KV("samples_path", info.samples_path);
  w->EndObject();
}

void AppendJobJson(common::JsonWriter* w, const JobSnapshot& snap) {
  w->BeginObject();
  w->KV("id", snap.id);
  w->KV("state", JobStateName(snap.state));
  w->KV("request_id", snap.request_id);
  w->KV("dataset_id", snap.dataset.id);
  w->KV("effective_budget_bytes", snap.effective_budget_bytes);
  w->Key("spec");
  snap.spec.AppendJson(w);
  w->KV("queued_ms", snap.queued_ms);
  w->KV("started_ms", snap.started_ms);
  w->KV("finished_ms", snap.finished_ms);
  if (snap.state == JobState::kFailed) w->KV("error", snap.error);
  w->EndObject();
}

/// Splits a request target into path segments, dropping any query string.
std::vector<std::string> PathSegments(const std::string& target) {
  std::string path = target;
  const std::size_t q = path.find('?');
  if (q != std::string::npos) path.resize(q);
  std::vector<std::string> segments;
  std::size_t begin = 0;
  while (begin < path.size()) {
    if (path[begin] == '/') {
      ++begin;
      continue;
    }
    std::size_t end = path.find('/', begin);
    if (end == std::string::npos) end = path.size();
    segments.push_back(path.substr(begin, end - begin));
    begin = end;
  }
  return segments;
}

}  // namespace

ClusteringService::ClusteringService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  jobs_ = std::make_unique<JobManager>(&registry_, cfg_.jobs);
}

ClusteringService::~ClusteringService() { Stop(); }

common::Status ClusteringService::Start() {
  jobs_->Start();
  server_ = std::make_unique<HttpServer>(
      cfg_.http, [this](const HttpRequest& req) { return Handle(req); });
  return server_->Start();
}

void ClusteringService::Stop() {
  if (server_) server_->Stop();
  jobs_->Stop();
}

HttpResponse ClusteringService::Handle(const HttpRequest& req) {
  const std::string request_id = NextRequestId();
  LogEvent("request", {{"request", request_id},
                       {"method", req.method},
                       {"target", req.target}});
  HttpResponse resp = Route(req, request_id);
  LogEvent("response", {{"request", request_id},
                        {"status", std::to_string(resp.status)}});
  return resp;
}

HttpResponse ClusteringService::Route(const HttpRequest& req,
                                      const std::string& request_id) {
  const std::vector<std::string> seg = PathSegments(req.target);

  if (seg.size() == 1 && seg[0] == "healthz") {
    if (req.method != "GET") return ErrorResponse(405, "GET only");
    HttpResponse resp;
    resp.body = "{\"status\": \"ok\"}\n";
    return resp;
  }
  if (seg.empty() || seg[0] != "v1") {
    return ErrorResponse(404, "unknown route: " + req.target);
  }
  if (seg.size() == 2 && seg[1] == "algorithms") {
    if (req.method != "GET") return ErrorResponse(405, "GET only");
    common::JsonWriter w;
    w.BeginObject();
    w.Key("algorithms");
    w.BeginArray();
    for (const std::string& name : clustering::RegisteredClusterers()) {
      w.Value(name);
    }
    w.EndArray();
    w.EndObject();
    HttpResponse resp;
    resp.body = w.str() + "\n";
    return resp;
  }
  if (seg.size() >= 2 && seg[1] == "datasets") {
    return HandleDatasets(req, seg.size() >= 3 ? seg[2] : "");
  }
  if (seg.size() >= 2 && seg[1] == "jobs") {
    return HandleJobs(req, seg.size() >= 3 ? seg[2] : "",
                      seg.size() >= 4 ? seg[3] : "", request_id);
  }
  if (seg.size() == 2 && seg[1] == "metrics") {
    if (req.method != "GET") return ErrorResponse(405, "GET only");
    return HandleMetrics();
  }
  return ErrorResponse(404, "unknown route: " + req.target);
}

HttpResponse ClusteringService::HandleDatasets(const HttpRequest& req,
                                               const std::string& id) {
  if (id.empty() && req.method == "POST") {
    common::Result<common::JsonValue> parsed = common::ParseJson(req.body);
    if (!parsed.ok()) {
      return ErrorResponse(400, "datasets: " + parsed.status().message());
    }
    const common::JsonValue& root = parsed.ValueOrDie();
    if (!root.is_object()) {
      return ErrorResponse(400, "datasets: body must be a JSON object");
    }
    const common::JsonValue* path = root.Find("path");
    if (path == nullptr || !path->is_string()) {
      return ErrorResponse(400, "datasets: \"path\" (string) is required");
    }
    const common::JsonValue* moments = root.Find("moments_path");
    if (moments != nullptr && !moments->is_string()) {
      return ErrorResponse(400, "datasets: \"moments_path\" must be a string");
    }
    const common::JsonValue* samples = root.Find("samples_path");
    if (samples != nullptr && !samples->is_string()) {
      return ErrorResponse(400, "datasets: \"samples_path\" must be a string");
    }
    common::Result<DatasetInfo> info = registry_.Register(
        path->AsString(), moments != nullptr ? moments->AsString() : "",
        samples != nullptr ? samples->AsString() : "");
    if (!info.ok()) return StatusResponse(info.status());
    common::JsonWriter w;
    AppendDatasetJson(&w, info.ValueOrDie());
    HttpResponse resp;
    resp.status = 201;
    resp.body = w.str() + "\n";
    return resp;
  }
  if (req.method != "GET") {
    return ErrorResponse(405, "datasets: GET or POST only");
  }
  if (id.empty()) {
    common::JsonWriter w;
    w.BeginObject();
    w.Key("datasets");
    w.BeginArray();
    for (const DatasetInfo& info : registry_.List()) {
      AppendDatasetJson(&w, info);
    }
    w.EndArray();
    w.EndObject();
    HttpResponse resp;
    resp.body = w.str() + "\n";
    return resp;
  }
  common::Result<DatasetInfo> info = registry_.Get(id);
  if (!info.ok()) return StatusResponse(info.status());
  common::JsonWriter w;
  AppendDatasetJson(&w, info.ValueOrDie());
  HttpResponse resp;
  resp.body = w.str() + "\n";
  return resp;
}

HttpResponse ClusteringService::HandleJobs(const HttpRequest& req,
                                           const std::string& id,
                                           const std::string& sub,
                                           const std::string& request_id) {
  if (id.empty()) {
    if (req.method != "POST") return ErrorResponse(405, "jobs: POST only");
    common::Result<JobSpec> spec = JobSpec::FromJson(req.body);
    if (!spec.ok()) return StatusResponse(spec.status());
    common::Result<std::string> job_id =
        jobs_->Submit(std::move(spec).ValueOrDie(), request_id);
    if (!job_id.ok()) return StatusResponse(job_id.status());
    common::JsonWriter w;
    w.BeginObject();
    w.KV("job_id", job_id.ValueOrDie());
    w.KV("state", "queued");
    w.KV("request_id", request_id);
    w.EndObject();
    HttpResponse resp;
    resp.status = 202;
    resp.body = w.str() + "\n";
    return resp;
  }

  if (req.method == "DELETE") {
    if (!sub.empty()) return ErrorResponse(404, "jobs: unknown subresource");
    common::Status st = jobs_->Cancel(id);
    if (!st.ok()) {
      // A running job cannot be cancelled — that is a conflict with its
      // current state, not a malformed request.
      const int code = st.code() == common::StatusCode::kInvalidArgument
                           ? 409
                           : StatusToHttp(st);
      return ErrorResponse(code, st.ToString());
    }
    common::JsonWriter w;
    w.BeginObject();
    w.KV("job_id", id);
    w.KV("state", "cancelled");
    w.EndObject();
    HttpResponse resp;
    resp.body = w.str() + "\n";
    return resp;
  }
  if (req.method != "GET") {
    return ErrorResponse(405, "jobs: GET or DELETE only");
  }

  common::Result<JobSnapshot> snap = jobs_->Get(id);
  if (!snap.ok()) return StatusResponse(snap.status());
  const JobSnapshot& job = snap.ValueOrDie();

  if (sub.empty()) {
    common::JsonWriter w;
    AppendJobJson(&w, job);
    HttpResponse resp;
    resp.body = w.str() + "\n";
    return resp;
  }
  if (sub != "result") return ErrorResponse(404, "jobs: unknown subresource");
  if (job.state == JobState::kFailed) {
    return ErrorResponse(500, "job " + id + " failed: " + job.error);
  }
  if (job.state != JobState::kDone) {
    return ErrorResponse(409, "job " + id + " is " +
                                  JobStateName(job.state) +
                                  "; result is available once done");
  }
  common::JsonWriter w;
  w.BeginObject();
  w.KV("job_id", job.id);
  w.KV("algorithm", job.spec.algorithm);
  w.KV("dataset_id", job.dataset.id);
  w.Key("result");
  clustering::AppendResultJson(&w, *job.result);
  w.EndObject();
  HttpResponse resp;
  resp.body = w.str() + "\n";
  return resp;
}

HttpResponse ClusteringService::HandleMetrics() const {
  const JobMetrics m = jobs_->Metrics();
  common::JsonWriter w;
  w.BeginObject();
  w.KV("submitted", static_cast<int64_t>(m.submitted));
  w.KV("rejected", static_cast<int64_t>(m.rejected));
  w.KV("completed", static_cast<int64_t>(m.completed));
  w.KV("failed", static_cast<int64_t>(m.failed));
  w.KV("cancelled", static_cast<int64_t>(m.cancelled));
  w.KV("admission_waits", static_cast<int64_t>(m.admission_waits));
  w.KV("queued", m.queued);
  w.KV("running", m.running);
  w.KV("max_running_concurrent", m.max_running_concurrent);
  w.KV("global_budget_bytes", m.global_budget_bytes);
  w.KV("budget_in_use_bytes", m.budget_in_use_bytes);
  w.KV("results_retained", m.results_retained);
  w.KV("result_bytes_retained", m.result_bytes_retained);
  w.KV("datasets", registry_.size());
  const MomentCacheStats cache = registry_.moment_cache_stats();
  w.Key("moment_cache");
  w.BeginObject();
  w.KV("entries", cache.entries);
  w.KV("bytes", cache.bytes);
  w.KV("hits", static_cast<int64_t>(cache.hits));
  w.KV("fills", static_cast<int64_t>(cache.fills));
  w.KV("invalidations", static_cast<int64_t>(cache.invalidations));
  w.EndObject();
  w.EndObject();
  HttpResponse resp;
  resp.body = w.str() + "\n";
  return resp;
}

}  // namespace uclust::service
