// Tests for the service HTTP front end: the socket-free request parser's
// hardening paths (truncation, oversize, malformed, unsupported framing),
// response rendering, a real loopback round trip through HttpServer +
// HttpFetch, and a start/request/stop stress loop under a watchdog.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "service/http_client.h"
#include "service/http_server.h"
#include "service/log.h"

namespace uclust::service {
namespace {

HttpServerConfig SmallConfig() {
  HttpServerConfig cfg;
  cfg.max_header_bytes = 256;
  cfg.max_body_bytes = 64;
  return cfg;
}

ParseOutcome Parse(const std::string& data, const HttpServerConfig& cfg,
                   HttpRequest* req) {
  std::size_t consumed = 0;
  return ParseHttpRequest(data, cfg, req, &consumed);
}

TEST(ParseHttpRequest, SimpleGet) {
  HttpRequest req;
  std::size_t consumed = 0;
  const std::string data = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_EQ(ParseHttpRequest(data, SmallConfig(), &req, &consumed),
            ParseOutcome::kDone);
  EXPECT_EQ(consumed, data.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/healthz");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(req.Header("host"), "x");
}

TEST(ParseHttpRequest, PostWithBody) {
  HttpRequest req;
  std::size_t consumed = 0;
  const std::string data =
      "POST /v1/jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"k\":3}";
  EXPECT_EQ(ParseHttpRequest(data, SmallConfig(), &req, &consumed),
            ParseOutcome::kDone);
  EXPECT_EQ(consumed, data.size());
  EXPECT_EQ(req.body, "{\"k\":3}");
}

TEST(ParseHttpRequest, HeaderNamesLowerCased) {
  HttpRequest req;
  EXPECT_EQ(Parse("GET / HTTP/1.1\r\nX-Custom-Thing: v\r\n\r\n",
                  SmallConfig(), &req),
            ParseOutcome::kDone);
  EXPECT_EQ(req.Header("x-custom-thing"), "v");
}

TEST(ParseHttpRequest, TruncatedInputsNeedMore) {
  HttpRequest req;
  const HttpServerConfig cfg = SmallConfig();
  EXPECT_EQ(Parse("", cfg, &req), ParseOutcome::kNeedMore);
  EXPECT_EQ(Parse("GET / HT", cfg, &req), ParseOutcome::kNeedMore);
  EXPECT_EQ(Parse("GET / HTTP/1.1\r\nHost: x\r\n", cfg, &req),
            ParseOutcome::kNeedMore);
  // Head complete but the declared body has not fully arrived.
  EXPECT_EQ(Parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", cfg, &req),
            ParseOutcome::kNeedMore);
}

TEST(ParseHttpRequest, MalformedRequestLine) {
  HttpRequest req;
  const HttpServerConfig cfg = SmallConfig();
  EXPECT_EQ(Parse("GET\r\n\r\n", cfg, &req), ParseOutcome::kBad);
  EXPECT_EQ(Parse("GET /x\r\n\r\n", cfg, &req), ParseOutcome::kBad);
  EXPECT_EQ(Parse("GET /x SMTP/1.0\r\n\r\n", cfg, &req), ParseOutcome::kBad);
  // Bare-LF line endings are rejected.
  EXPECT_EQ(Parse("GET / HTTP/1.1\n\n", cfg, &req), ParseOutcome::kBad);
}

TEST(ParseHttpRequest, MalformedHeaders) {
  HttpRequest req;
  const HttpServerConfig cfg = SmallConfig();
  EXPECT_EQ(Parse("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", cfg, &req),
            ParseOutcome::kBad);
  // Obsolete line folding (continuation line) is rejected.
  EXPECT_EQ(
      Parse("GET / HTTP/1.1\r\nA: b\r\n  folded\r\n\r\n", cfg, &req),
      ParseOutcome::kBad);
}

TEST(ParseHttpRequest, ContentLengthStrictness) {
  HttpRequest req;
  const HttpServerConfig cfg = SmallConfig();
  EXPECT_EQ(Parse("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", cfg, &req),
            ParseOutcome::kBad);
  EXPECT_EQ(Parse("POST / HTTP/1.1\r\nContent-Length: 1x\r\n\r\n", cfg, &req),
            ParseOutcome::kBad);
  EXPECT_EQ(
      Parse("POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
            cfg, &req),
      ParseOutcome::kBad);
  // Conflicting duplicates are an attack vector (request smuggling).
  EXPECT_EQ(
      Parse("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n"
            "\r\nab",
            cfg, &req),
      ParseOutcome::kBad);
}

TEST(ParseHttpRequest, OversizeHeaders) {
  HttpRequest req;
  const HttpServerConfig cfg = SmallConfig();  // 256-byte header cap
  std::string data = "GET / HTTP/1.1\r\nX-Pad: ";
  data.append(512, 'a');
  data += "\r\n\r\n";
  EXPECT_EQ(Parse(data, cfg, &req), ParseOutcome::kHeadersTooLarge);
  // The cap triggers even before the head terminator arrives — a peer
  // streaming an unbounded header line cannot hold a buffer open.
  std::string unfinished = "GET / HTTP/1.1\r\nX-Pad: ";
  unfinished.append(512, 'a');
  EXPECT_EQ(Parse(unfinished, cfg, &req), ParseOutcome::kHeadersTooLarge);
}

TEST(ParseHttpRequest, OversizeBody) {
  HttpRequest req;
  const HttpServerConfig cfg = SmallConfig();  // 64-byte body cap
  const std::string data =
      "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
  EXPECT_EQ(Parse(data, cfg, &req), ParseOutcome::kBodyTooLarge);
}

TEST(ParseHttpRequest, ChunkedUnsupported) {
  HttpRequest req;
  EXPECT_EQ(Parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                  SmallConfig(), &req),
            ParseOutcome::kUnsupported);
}

TEST(RenderHttpResponse, IncludesFramingHeaders) {
  HttpResponse resp;
  resp.status = 404;
  resp.body = "{\"error\": \"x\"}";
  const std::string wire = RenderHttpResponse(resp);
  EXPECT_EQ(wire.find("HTTP/1.1 404 Not Found\r\n"), 0u);
  EXPECT_NE(wire.find("Content-Length: 14\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - resp.body.size()), resp.body);
}

TEST(HttpStatusReasonTest, KnownAndUnknownCodes) {
  EXPECT_STREQ(HttpStatusReason(200), "OK");
  EXPECT_STREQ(HttpStatusReason(429), "Too Many Requests");
  EXPECT_STREQ(HttpStatusReason(431), "Request Header Fields Too Large");
}

// One random mutation of a corpus request: byte flips, truncation,
// duplicated or oversized headers, hostile Content-Length values, bare LF
// line ends, or two requests spliced together.
std::string MutateRequest(const std::vector<std::string>& corpus,
                          common::Rng* rng) {
  std::string text = corpus[rng->Index(corpus.size())];
  const std::size_t head_end = text.find("\r\n\r\n");
  switch (rng->Index(7)) {
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
      text.resize(rng->Index(text.size() + 1));
      break;
    case 2: {
      // Repeat the request's first header line, Content-Length included.
      const std::size_t line = text.find("\r\n") + 2;
      const std::size_t line_end = text.find("\r\n", line);
      if (line_end <= head_end) {
        text.insert(line, text.substr(line, line_end + 2 - line));
      }
      break;
    }
    case 3: {
      const std::string pad =
          "X-Pad: " + std::string(rng->Index(600), 'a') + "\r\n";
      text.insert(text.find("\r\n") + 2, pad);
      break;
    }
    case 4: {
      static const char* const kLengths[] = {
          "0", "1", "7", "64", "65", "99999999999999999999",
          "18446744073709551615", "9999999999999999999", "-1", "+7", " 7",
          "7 ", "0x10", "1e3", "abc", ""};
      const std::string header = std::string("Content-Length: ") +
                                 kLengths[rng->Index(std::size(kLengths))] +
                                 "\r\n";
      const std::size_t at = text.find("Content-Length: ");
      if (at != std::string::npos && rng->Bernoulli(0.5)) {
        text.replace(at, text.find("\r\n", at) + 2 - at, header);
      } else {
        text.insert(text.find("\r\n") + 2, header);
      }
      break;
    }
    case 5: {
      // Bare LF for one CRLF, or for every CRLF in the head.
      const bool all = rng->Bernoulli(0.5);
      for (std::size_t at = text.find("\r\n"); at != std::string::npos;
           at = text.find("\r\n", at)) {
        if (all || rng->Bernoulli(0.3)) {
          text.erase(at, 1);
          if (!all) break;
        } else {
          at += 2;
        }
      }
      break;
    }
    default:
      text += corpus[rng->Index(corpus.size())];
      break;
  }
  return text;
}

// Seeded mutation fuzz of the request parser: every mutant yields a
// ParseOutcome without crashing or tripping a sanitizer, and a kDone parse
// consumed no more than it was given, with exactly Content-Length body
// bytes taken from the end of the consumed prefix.
TEST(ParseHttpRequestFuzz, EveryMutantParsesOrIsRejected) {
  const std::vector<std::string> corpus = {
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
      "GET /v1/jobs/j-1/result HTTP/1.0\r\nHost: x\r\nAccept: */*\r\n\r\n",
      "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json"
      "\r\nContent-Length: 30\r\n\r\n{\"dataset_id\": \"ds-1\", \"k\": 3}",
      "POST /v1/datasets HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
      "DELETE /v1/jobs/j-2 HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
  };
  HttpServerConfig roomy;  // default limits
  const HttpServerConfig configs[] = {SmallConfig(), roomy};
  for (const std::string& text : corpus) {
    HttpRequest req;
    std::size_t consumed = 0;
    ASSERT_EQ(ParseHttpRequest(text, roomy, &req, &consumed),
              ParseOutcome::kDone)
        << text;
    ASSERT_EQ(consumed, text.size()) << text;
  }

  common::Rng rng(20261017);
  int outcomes[6] = {};
  for (int iter = 0; iter < 2000; ++iter) {
    const std::string text = MutateRequest(corpus, &rng);
    const HttpServerConfig& cfg = configs[iter % 2];
    HttpRequest req;
    std::size_t consumed = 0;
    const ParseOutcome outcome = ParseHttpRequest(text, cfg, &req, &consumed);
    const int index = static_cast<int>(outcome);
    ASSERT_GE(index, 0) << "mutant " << iter;
    ASSERT_LT(index, 6) << "mutant " << iter;
    ++outcomes[index];
    if (outcome != ParseOutcome::kDone) continue;
    ASSERT_LE(consumed, text.size()) << "mutant " << iter;
    const std::string& length = req.Header("content-length");
    const std::size_t want =
        length.empty() ? 0 : static_cast<std::size_t>(std::stoull(length));
    ASSERT_EQ(req.body.size(), want) << "mutant " << iter << ": " << text;
    ASSERT_EQ(text.compare(consumed - want, want, req.body), 0)
        << "mutant " << iter;
    EXPECT_FALSE(req.method.empty()) << "mutant " << iter;
    EXPECT_EQ(req.target.front(), '/') << "mutant " << iter;
  }
  // The mutations must reach the accepting and the main rejecting verdicts.
  EXPECT_GT(outcomes[static_cast<int>(ParseOutcome::kDone)], 0);
  EXPECT_GT(outcomes[static_cast<int>(ParseOutcome::kNeedMore)], 0);
  EXPECT_GT(outcomes[static_cast<int>(ParseOutcome::kBad)], 0);
  EXPECT_GT(outcomes[static_cast<int>(ParseOutcome::kHeadersTooLarge)], 0);
  EXPECT_GT(outcomes[static_cast<int>(ParseOutcome::kBodyTooLarge)], 0);
}

// Real sockets: start a server on an ephemeral port, round-trip a request
// through the loopback client, and check the handler saw what was sent.
TEST(HttpServer, LoopbackRoundTrip) {
  HttpServerConfig cfg;
  cfg.worker_threads = 2;
  HttpServer server(cfg, [](const HttpRequest& req) {
    HttpResponse resp;
    if (req.target == "/echo" && req.method == "POST") {
      resp.body = req.body;
    } else if (req.target == "/healthz") {
      resp.body = "{\"status\": \"ok\"}";
    } else {
      resp.status = 404;
      resp.body = "{}";
    }
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto health = HttpFetch(server.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.ValueOrDie().status, 200);
  EXPECT_EQ(health.ValueOrDie().body, "{\"status\": \"ok\"}");

  auto echo = HttpFetch(server.port(), "POST", "/echo", "{\"payload\": 1}");
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(echo.ValueOrDie().status, 200);
  EXPECT_EQ(echo.ValueOrDie().body, "{\"payload\": 1}");

  auto missing = HttpFetch(server.port(), "GET", "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.ValueOrDie().status, 404);

  server.Stop();
  // Stop is idempotent.
  server.Stop();
}

// Stop right after a request must never hang. Stop used to flip running_
// without holding the worker mutex, so a worker that had just evaluated its
// wait predicate could miss the notify and block the join forever. Each
// cycle runs under a watchdog: a cycle that makes no progress for 20 s is
// reported and the process exits, instead of hanging the suite.
TEST(HttpServer, StopRightAfterRequestNeverHangs) {
  constexpr int kCycles = 400;
  SetLogEnabled(false);  // one http_start line per cycle otherwise
  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  std::thread runner([&] {
    for (int c = 0; c < kCycles; ++c) {
      HttpServerConfig cfg;
      cfg.worker_threads = 2;
      HttpServer server(cfg, [](const HttpRequest&) {
        HttpResponse resp;
        resp.body = "{}";
        return resp;
      });
      if (!server.Start().ok()) {
        failures.fetch_add(1);
      } else {
        auto resp = HttpFetch(server.port(), "GET", "/healthz");
        if (!resp.ok() || resp.ValueOrDie().status != 200) {
          failures.fetch_add(1);
        }
        server.Stop();
      }
      completed.fetch_add(1);
    }
  });
  int last = -1;
  auto deadline = std::chrono::steady_clock::now();
  while (completed.load() < kCycles) {
    const int now = completed.load();
    if (now != last) {
      last = now;
      deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    } else if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "HttpServer::Stop hung in cycle %d of %d\n", now,
                   kCycles);
      std::fflush(stderr);
      std::_Exit(1);  // the runner thread is stuck in a join
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runner.join();
  SetLogEnabled(true);
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace uclust::service
