#include "service/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "service/log.h"

namespace uclust::service {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool IsToken(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u <= ' ' || u >= 127 || c == ':') return false;
  }
  return true;
}

// Parses a non-negative decimal with no sign/whitespace; false on overflow
// or non-digits. (strtoull would accept "  +7 " — too lenient for a
// Content-Length from an untrusted peer.)
bool ParseDecimal(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

void WriteAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;  // peer gone; nothing useful to do
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

const std::string& HttpRequest::Header(const std::string& lower_name) const {
  static const std::string kEmpty;
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return value;
  }
  return kEmpty;
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

ParseOutcome ParseHttpRequest(std::string_view data,
                              const HttpServerConfig& cfg, HttpRequest* req,
                              std::size_t* consumed) {
  const std::size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    // No complete header block yet. Still enforce the cap: a peer that
    // streams an unbounded header line must be cut off, not buffered.
    if (data.size() > cfg.max_header_bytes) return ParseOutcome::kHeadersTooLarge;
    // A lone LF-terminated head is malformed rather than incomplete.
    if (data.find("\n\n") != std::string_view::npos) return ParseOutcome::kBad;
    return ParseOutcome::kNeedMore;
  }
  if (head_end + 4 > cfg.max_header_bytes) return ParseOutcome::kHeadersTooLarge;

  const std::string_view head = data.substr(0, head_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  // Request line: METHOD SP TARGET SP VERSION — exactly two spaces.
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return ParseOutcome::kBad;
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (!IsToken(method) || target.empty() || target.front() != '/' ||
      target.find(' ') != std::string_view::npos) {
    return ParseOutcome::kBad;
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return ParseOutcome::kBad;

  HttpRequest parsed;
  parsed.method = std::string(method);
  parsed.target = std::string(target);
  parsed.version = std::string(version);

  // Header fields.
  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view()
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    std::size_t eol = rest.find("\r\n");
    if (eol == std::string_view::npos) eol = rest.size();
    const std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(eol == rest.size() ? eol : eol + 2);
    if (line.empty()) return ParseOutcome::kBad;  // CRLF CRLF handled above
    // Obsolete line folding (leading whitespace) is rejected outright.
    if (line.front() == ' ' || line.front() == '\t') return ParseOutcome::kBad;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return ParseOutcome::kBad;
    const std::string_view name = line.substr(0, colon);
    if (!IsToken(name)) return ParseOutcome::kBad;
    parsed.headers.emplace_back(ToLower(name),
                                std::string(Trim(line.substr(colon + 1))));
  }

  // Body framing. Transfer-Encoding (chunked or otherwise) is out of scope.
  if (!parsed.Header("transfer-encoding").empty()) {
    return ParseOutcome::kUnsupported;
  }
  std::uint64_t content_length = 0;
  const std::string& cl = parsed.Header("content-length");
  if (!cl.empty()) {
    if (!ParseDecimal(cl, &content_length)) return ParseOutcome::kBad;
    // Duplicate, conflicting Content-Length headers are request smuggling
    // bait; reject any repeat.
    int count = 0;
    for (const auto& [name, value] : parsed.headers) {
      if (name == "content-length") ++count;
    }
    if (count > 1) return ParseOutcome::kBad;
  }
  if (content_length > cfg.max_body_bytes) return ParseOutcome::kBodyTooLarge;

  const std::size_t body_start = head_end + 4;
  if (data.size() - body_start < content_length) return ParseOutcome::kNeedMore;
  parsed.body = std::string(data.substr(body_start, content_length));

  *req = std::move(parsed);
  *consumed = body_start + static_cast<std::size_t>(content_length);
  return ParseOutcome::kDone;
}

std::string RenderHttpResponse(const HttpResponse& resp) {
  std::string out;
  char head[128];
  std::snprintf(head, sizeof(head), "HTTP/1.1 %d %s\r\n", resp.status,
                HttpStatusReason(resp.status));
  out += head;
  if (!resp.body.empty() || resp.status != 204) {
    out += "Content-Type: " + resp.content_type + "\r\n";
  }
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += resp.body;
  return out;
}

HttpServer::HttpServer(HttpServerConfig cfg, HttpHandler handler)
    : cfg_(std::move(cfg)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Stop(); }

common::Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return common::Status::Internal("http: socket() failed: " +
                                    std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return common::Status::InvalidArgument("http: bad bind address: " +
                                           cfg_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return common::Status::Internal("http: bind() failed: " + err);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return common::Status::Internal("http: listen() failed: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const std::size_t workers = cfg_.worker_threads == 0 ? 1 : cfg_.worker_threads;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  LogEvent("http_start", {{"addr", cfg_.bind_address},
                          {"port", std::to_string(port_)},
                          {"workers", std::to_string(workers)}});
  return common::Status::Ok();
}

void HttpServer::Stop() {
  {
    // Flip the flag under mu_: a worker evaluates its wait predicate under
    // mu_ and blocks atomically, so it either sees running_ == false or is
    // already waiting when the notify_all below fires. Flipping it outside
    // the lock let a worker check the predicate, miss the wake-up, and hang
    // the join.
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.exchange(false)) return;
  }
  // shutdown() wakes the blocking accept(); close() alone may not on all
  // platforms.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

void HttpServer::AcceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket is dead
    }
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() < cfg_.connection_backlog) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      cv_.notify_one();
    } else {
      HttpResponse busy;
      busy.status = 503;
      busy.body = "{\"error\": \"server busy\"}\n";
      WriteAll(fd, RenderHttpResponse(busy));
      ::close(fd);
    }
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !pending_.empty() || !running_.load(); });
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  timeval tv{};
  tv.tv_sec = cfg_.recv_timeout_ms / 1000;
  tv.tv_usec = (cfg_.recv_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  std::string buf;
  HttpRequest req;
  std::size_t consumed = 0;
  char chunk[4096];
  HttpResponse resp;
  while (true) {
    const ParseOutcome outcome = ParseHttpRequest(buf, cfg_, &req, &consumed);
    if (outcome == ParseOutcome::kDone) {
      resp = handler_(req);
      break;
    }
    if (outcome != ParseOutcome::kNeedMore) {
      resp.status = outcome == ParseOutcome::kHeadersTooLarge ? 431
                    : outcome == ParseOutcome::kBodyTooLarge  ? 413
                    : outcome == ParseOutcome::kUnsupported   ? 501
                                                              : 400;
      resp.body = "{\"error\": \"" + std::string(HttpStatusReason(resp.status)) +
                  "\"}\n";
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    // EOF or error mid-request: timeout gets 408, truncation 400. An EOF
    // on a completely empty buffer is just a probe (health checkers do
    // this); close silently.
    if (buf.empty()) return;
    resp.status = (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) ? 408
                                                                       : 400;
    resp.body = "{\"error\": \"" + std::string(HttpStatusReason(resp.status)) +
                "\"}\n";
    break;
  }
  WriteAll(fd, RenderHttpResponse(resp));
}

}  // namespace uclust::service
