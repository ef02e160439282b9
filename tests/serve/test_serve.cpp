// The qlec_serve stack end to end, in process: HTTP framing, the
// JobService REST surface (validation errors, run lifecycle, manifests,
// cancellation), the second-submission cache guarantee and concurrent
// deduplication — all over a real loopback socket on an ephemeral port —
// and the plan memo behind POST /v1/runs, driven through handle() directly.
#include "serve/service.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "config/jobs.hpp"
#include "config/runner.hpp"
#include "config/sweep.hpp"
#include "config/version.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

#ifndef QLEC_SCENARIO_DIR
#error "QLEC_SCENARIO_DIR must point at examples/scenarios"
#endif

namespace qlec::serve {
namespace {

const char* kTinyScenario = R"({
  "name": "serve-tiny",
  "scenario": {"n": 16},
  "sim": {"rounds": 2, "slots_per_round": 4, "trace": {"record": true}},
  "seeds": 1,
  "sweep": {"protocol.name": ["leach", "direct"]}
})";

/// One server + service per fixture, torn down after each test.
class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : service_(ServiceOptions{/*workers=*/2, /*cache_dir=*/"",
                                /*telemetry_dir=*/"", /*max_cells=*/100}),
        server_("127.0.0.1", 0,
                [this](const HttpRequest& req, HttpResponse& resp) {
                  service_.handle(req, resp);
                }) {}

  ClientResponse roundtrip(const std::string& method,
                           const std::string& target,
                           const std::string& body = "") {
    std::string error;
    auto resp =
        http_request("127.0.0.1", server_.port(), method, target, body,
                     &error);
    EXPECT_TRUE(resp.has_value()) << error;
    return resp.value_or(ClientResponse{});
  }

  JobService service_;
  HttpServer server_;
};

TEST(HttpParsing, RequestLineAndHeaders) {
  HttpRequest req;
  std::string error;
  ASSERT_TRUE(parse_http_request(
      "POST /v1/runs?wait=1&priority=3 HTTP/1.1\r\n"
      "Host: x\r\nContent-Type:  application/json \r\n\r\nbody",
      req, &error))
      << error;
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/runs");
  EXPECT_EQ(req.query.at("wait"), "1");
  EXPECT_EQ(req.query.at("priority"), "3");
  EXPECT_EQ(req.headers.at("content-type"), "application/json");
  EXPECT_EQ(req.body, "body");
}

TEST(HttpParsing, RejectsMalformedRequests) {
  HttpRequest req;
  EXPECT_FALSE(parse_http_request("GET /\r\n\r\n", req, nullptr));
  EXPECT_FALSE(parse_http_request("GET / SPDY/3\r\n\r\n", req, nullptr));
  EXPECT_FALSE(parse_http_request("GET noslash HTTP/1.1\r\n\r\n", req,
                                  nullptr));
  EXPECT_FALSE(parse_http_request(
      "GET / HTTP/1.1\r\nbroken header line\r\n\r\n", req, nullptr));
}

TEST(HttpParsing, UrlSplitting) {
  std::string host, path;
  std::uint16_t port = 0;
  ASSERT_TRUE(parse_http_url("http://127.0.0.1:8423/v1/runs", host, port,
                             path));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8423);
  EXPECT_EQ(path, "/v1/runs");
  ASSERT_TRUE(parse_http_url("http://10.0.0.1", host, port, path));
  EXPECT_EQ(port, 80);
  EXPECT_EQ(path, "/");
  EXPECT_FALSE(parse_http_url("https://127.0.0.1/", host, port, path));
  EXPECT_FALSE(parse_http_url("http://:99/", host, port, path));
  EXPECT_FALSE(parse_http_url("http://1.2.3.4:99999/", host, port, path));
}

TEST(HttpParsing, StatusLineIsStrict) {
  EXPECT_EQ(parse_status_line("HTTP/1.1 200 OK"), 200);
  EXPECT_EQ(parse_status_line("HTTP/1.0 404 Not Found"), 404);
  EXPECT_EQ(parse_status_line("HTTP/1.1 503"), 503);
  EXPECT_EQ(parse_status_line("HTTP/1.1 100 Continue"), 100);
  EXPECT_EQ(parse_status_line("HTTP/1.1 599 x"), 599);
  for (const int status : {200, 202, 400, 404, 409, 500, 503}) {
    HttpResponse resp;
    resp.status = status;
    const std::string reply = render_http_response(resp);
    EXPECT_EQ(parse_status_line(reply.substr(0, reply.find("\r\n"))),
              status);
  }
  for (const char* bad :
       {"HTTP/1.1 abc", "HTTP/1.1 99999999999", "HTTP/1.1 20", "HTTP/1.1",
        "HTTP/1.1 2000 OK", "HTTP/1.1 099 x", "HTTP/1.1 600 x",
        "HTTP/1.1  200 OK", "HTTP/2.0 200 OK", "HTTP/1.x 200 OK",
        "http/1.1 200 OK", "HTTP/1.1 +20 OK", ""})
    EXPECT_EQ(parse_status_line(bad), std::nullopt) << bad;
}

/// Sends `raw` to a loopback server as is and returns the reply's status
/// line.
std::string raw_status_line(std::uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string reply;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(raw.size())) {
    char buf[512];
    for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
      reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply.substr(0, reply.find("\r\n"));
}

TEST(HttpParsing, ContentLengthIsStrict) {
  EXPECT_EQ(parse_content_length("0"), 0u);
  EXPECT_EQ(parse_content_length("5"), 5u);
  EXPECT_EQ(parse_content_length("0016777216"), 16777216u);
  EXPECT_EQ(parse_content_length("18446744073709551615"),
            std::size_t{18446744073709551615ULL});
  for (const char* bad :
       {"", "+5", "-1", "-0", " 5", "5 ", "5x", "0x10", "1e3", "5.0",
        "18446744073709551616", "99999999999999999999999"})
    EXPECT_EQ(parse_content_length(bad), std::nullopt) << bad;

  // On the wire: a signed or overflowing length is a 400, not a 413.
  HttpServer server("127.0.0.1", 0, [](const HttpRequest&, HttpResponse&) {});
  for (const char* bad : {"-1", "+5", "18446744073709551616"})
    EXPECT_EQ(raw_status_line(server.port(),
                              std::string("POST / HTTP/1.1\r\n"
                                          "Content-Length: ") +
                                  bad + "\r\n\r\n"),
              "HTTP/1.1 400 Bad Request")
        << bad;
  EXPECT_EQ(raw_status_line(server.port(),
                            "POST / HTTP/1.1\r\nContent-Length: 16777217"
                            "\r\n\r\n"),
            "HTTP/1.1 413 Payload Too Large");
}

TEST(HttpClient, OutOfRangeStatusIsAMalformedResponse) {
  HttpServer server("127.0.0.1", 0, [](const HttpRequest&, HttpResponse& r) {
    r.status = 20;
  });
  std::string error;
  EXPECT_FALSE(
      http_request("127.0.0.1", server.port(), "GET", "/", "", &error));
  EXPECT_EQ(error, "malformed response");
}

TEST_F(ServeTest, HealthzReportsVersions) {
  const ClientResponse r = roundtrip("GET", "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(r.body.find(config::kCodeVersion), std::string::npos);
}

TEST_F(ServeTest, UnknownEndpointsAndMethods) {
  EXPECT_EQ(roundtrip("GET", "/nope").status, 404);
  EXPECT_EQ(roundtrip("GET", "/v1/runs/r999").status, 404);
  EXPECT_EQ(roundtrip("DELETE", "/healthz").status, 405);
  EXPECT_EQ(roundtrip("GET", "/v1/runs").status, 405);
}

TEST_F(ServeTest, InvalidScenarioIsA400WithPath) {
  const ClientResponse r = roundtrip(
      "POST", "/v1/runs", R"({"scenario": {"n": -4}})");
  EXPECT_EQ(r.status, 400);
  // The strict schema's dotted path must surface to the client.
  EXPECT_NE(r.body.find("scenario.n"), std::string::npos);
  const ClientResponse bad_json = roundtrip("POST", "/v1/runs", "{nope");
  EXPECT_EQ(bad_json.status, 400);
}

TEST_F(ServeTest, PriorityMustBeAStrictInt) {
  for (const char* bad : {"abc", "1x", "99999999999", ""}) {
    const ClientResponse r = roundtrip(
        "POST", std::string("/v1/runs?priority=") + bad, kTinyScenario);
    EXPECT_EQ(r.status, 400) << bad;
    EXPECT_NE(r.body.find("\"path\":\"priority\""), std::string::npos)
        << r.body;
  }
  const ClientResponse ok =
      roundtrip("POST", "/v1/runs?priority=-3&wait=1", kTinyScenario);
  EXPECT_EQ(ok.status, 200) << ok.body;
}

TEST_F(ServeTest, OversizedGridIsRejected) {
  const ClientResponse r = roundtrip("POST", "/v1/runs", R"({
    "scenario": {"n": 16},
    "sweep": {"scenario.n": [16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
                             26, 27, 28, 29, 30, 31, 32, 33, 34, 35],
              "sim.rounds": [1, 2, 3, 4, 5, 6],
              "base_seed": [1, 2]}
  })");
  EXPECT_EQ(r.status, 400);  // 20*6*2 = 240 cells > max_cells=100
  EXPECT_NE(r.body.find("240 cells"), std::string::npos);
}

TEST_F(ServeTest, WaitedRunReturnsAStrictManifest) {
  const ClientResponse r =
      roundtrip("POST", "/v1/runs?wait=1", kTinyScenario);
  ASSERT_EQ(r.status, 200) << r.body;
  const config::RunManifest m = config::manifest_from_json(r.body);
  EXPECT_EQ(m.name, "serve-tiny");
  ASSERT_EQ(m.cells.size(), 2u);
  EXPECT_EQ(m.cells[0].config.protocol.name, "leach");
  EXPECT_EQ(m.cells[0].digests.size(), 1u);
}

TEST_F(ServeTest, RunLifecycleAndSecondSubmissionIsAllCache) {
  const ClientResponse first =
      roundtrip("POST", "/v1/runs", kTinyScenario);
  ASSERT_EQ(first.status, 202) << first.body;
  ASSERT_NE(first.body.find("\"run_id\":\"r1\""), std::string::npos)
      << first.body;

  // wait=1 on the identical scenario: coalesces or hits cache, never
  // re-simulates.
  const ClientResponse second =
      roundtrip("POST", "/v1/runs?wait=1", kTinyScenario);
  ASSERT_EQ(second.status, 200);
  const config::RunManifest m2 = config::manifest_from_json(second.body);

  // First run is now complete too (same jobs); its manifest must be
  // byte-identical — same cells, same digests, straight from the store.
  const ClientResponse m1 = roundtrip("GET", "/v1/runs/r1/manifest");
  ASSERT_EQ(m1.status, 200);
  EXPECT_EQ(m1.body, second.body);

  const ClientResponse status = roundtrip("GET", "/v1/runs/r1");
  ASSERT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"state\":\"done\""), std::string::npos);

  // Exactly 2 simulations total across both submissions.
  const ClientResponse stats = roundtrip("GET", "/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"simulated\":2"), std::string::npos)
      << stats.body;
  (void)m2;
}

TEST_F(ServeTest, ConcurrentIdenticalGridsSimulateEachCellOnce) {
  // C loopback clients race the SAME grid: every cell simulates exactly
  // once; the other submissions coalesce onto the live job or hit the
  // store.
  constexpr std::size_t kClients = 3;
  std::vector<int> status(kClients, 0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([this, c, &status] {
      const auto resp = http_request("127.0.0.1", server_.port(), "POST",
                                     "/v1/runs?wait=1", kTinyScenario);
      status[c] = resp ? resp->status : -1;
    });
  for (std::thread& t : clients) t.join();
  for (const int s : status) EXPECT_EQ(s, 200);
  const std::size_t cells =
      config::expand_grid(config::parse_scenario(kTinyScenario)).size();
  EXPECT_EQ(service_.runner().stats().simulated, cells);
}

TEST_F(ServeTest, CancelledRunHasNoManifest) {
  // Saturate both workers AND leave a high-priority backlog, so the victim
  // (priority 0) cannot start until at least four heavier cells finish —
  // the cancel request arrives long before that.
  const char* kSlow = R"({
    "scenario": {"n": 120},
    "sim": {"rounds": 40, "slots_per_round": 10},
    "seeds": 2,
    "protocol": {"name": "qlec"},
    "sweep": {"base_seed": [1, 2, 3, 4]}
  })";
  const ClientResponse slow = roundtrip("POST", "/v1/runs?priority=9", kSlow);
  ASSERT_EQ(slow.status, 202);
  const ClientResponse queued = roundtrip("POST", "/v1/runs", R"({
    "scenario": {"n": 16},
    "sim": {"rounds": 2, "slots_per_round": 4},
    "seeds": 1,
    "sweep": {"protocol.name": ["heed"]}
  })");
  ASSERT_EQ(queued.status, 202);

  const ClientResponse cancel = roundtrip("POST", "/v1/runs/r2/cancel");
  ASSERT_EQ(cancel.status, 200);
  EXPECT_NE(cancel.body.find("\"cancelled\":1"), std::string::npos)
      << cancel.body;
  const ClientResponse manifest = roundtrip("GET", "/v1/runs/r2/manifest");
  EXPECT_EQ(manifest.status, 409);
  const ClientResponse status = roundtrip("GET", "/v1/runs/r2");
  EXPECT_NE(status.body.find("\"state\":\"cancelled\""), std::string::npos)
      << status.body;
}

// ---- The plan memo: a repeated body reuses its job keys ----

HttpResponse call(JobService& service, const std::string& method,
                  const std::string& path, const std::string& body = "",
                  std::map<std::string, std::string> query = {}) {
  HttpRequest req;
  req.method = method;
  req.path = path;
  req.query = std::move(query);
  req.body = body;
  HttpResponse resp;
  service.handle(req, resp);
  return resp;
}

PlanMemo::Stats plan_stats(JobService& service) {
  const HttpResponse r = call(service, "GET", "/stats");
  const std::optional<JsonValue> doc = parse_json(r.body);
  const JsonValue* plans = doc ? doc->get("plans") : nullptr;
  PlanMemo::Stats s;
  if (plans == nullptr) {
    ADD_FAILURE() << "no plans block in /stats: " << r.body;
    return s;
  }
  s.entries = static_cast<std::size_t>(plans->get("entries")->as_int());
  s.bytes = static_cast<std::size_t>(plans->get("bytes")->as_int());
  s.hits = static_cast<std::uint64_t>(plans->get("hits")->as_int());
  s.misses = static_cast<std::uint64_t>(plans->get("misses")->as_int());
  return s;
}

/// Stores a stand-in result under every key `body` plans to, so posting it
/// is all store hits and simulates nothing. Returns config::plan's specs.
std::vector<config::JobSpec> stock_store(JobService& service,
                                         const std::string& body) {
  std::vector<config::JobSpec> specs =
      config::plan(config::expand_grid(config::parse_scenario(body)));
  for (const config::JobSpec& spec : specs) {
    config::CellResult r;
    r.config = spec.config;
    service.store().insert(spec.key, r);
  }
  return specs;
}

/// (key, label) of every job in a run_status body.
std::vector<std::pair<std::string, std::string>> status_jobs(
    const std::string& body) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::optional<JsonValue> doc = parse_json(body);
  const JsonValue* jobs = doc ? doc->get("jobs") : nullptr;
  if (jobs == nullptr) return out;
  for (const JsonValue& j : jobs->items())
    out.emplace_back(j.get("key")->as_string(), j.get("label")->as_string());
  return out;
}

std::vector<std::pair<std::string, std::string>> spec_jobs(
    const std::vector<config::JobSpec>& specs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const config::JobSpec& spec : specs)
    out.emplace_back(spec.key, spec.label);
  return out;
}

ServiceOptions memo_options() {
  ServiceOptions o;
  o.workers = 1;
  return o;
}

TEST(PlanMemo, WarmServiceMatchesAFreshOneOnEveryScenario) {
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"", "/worlds"})
    for (const auto& e : std::filesystem::directory_iterator(
             std::string(QLEC_SCENARIO_DIR) + dir))
      if (e.path().extension() == ".json") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 20u);
  for (const std::filesystem::path& file : files) {
    SCOPED_TRACE(file.string());
    const std::string text = read_text_file(file.string()).value();
    JobService fresh(memo_options());
    JobService warm(memo_options());
    const std::vector<config::JobSpec> specs = stock_store(fresh, text);
    stock_store(warm, text);

    const HttpResponse cold = call(fresh, "POST", "/v1/runs", text);
    ASSERT_EQ(cold.status, 202) << cold.body;
    ASSERT_EQ(call(warm, "POST", "/v1/runs", text).status, 202);
    const HttpResponse hit = call(warm, "POST", "/v1/runs", text);
    ASSERT_EQ(hit.status, 202) << hit.body;
    const PlanMemo::Stats ps = plan_stats(warm);
    EXPECT_EQ(ps.hits, 1u);
    EXPECT_EQ(ps.misses, 1u);

    // Same keys and labels as config::plan, and the same status bytes as
    // the fresh service (only the run id differs: r2 against r1).
    EXPECT_EQ(status_jobs(hit.body), spec_jobs(specs));
    std::string renamed = hit.body;
    const std::string r2 = "\"run_id\":\"r2\"";
    ASSERT_EQ(renamed.find(r2), 1u) << renamed;
    renamed.replace(1, r2.size(), "\"run_id\":\"r1\"");
    EXPECT_EQ(renamed, cold.body);
    EXPECT_EQ(call(warm, "GET", "/v1/runs/r2").body,
              call(warm, "GET", "/v1/runs/r1").body.replace(
                  1, r2.size(), r2));
  }
}

TEST(PlanMemo, RejectedBodiesAreNeverKept) {
  ServiceOptions o = memo_options();
  o.max_cells = 1;
  JobService service(o);
  EXPECT_EQ(call(service, "POST", "/v1/runs", "{nope").status, 400);
  EXPECT_EQ(
      call(service, "POST", "/v1/runs", R"({"scenario": {"n": -4}})").status,
      400);
  EXPECT_EQ(call(service, "POST", "/v1/runs", kTinyScenario).status, 400)
      << "2 cells > max_cells=1";
  const std::string one_cell = R"({"scenario": {"n": 16}, "seeds": 1,
    "sim": {"rounds": 2, "slots_per_round": 4}})";
  stock_store(service, one_cell);
  EXPECT_EQ(call(service, "POST", "/v1/runs", one_cell, {{"priority", "x"}})
                .status,
            400);
  for (int round = 0; round < 2; ++round) {
    const PlanMemo::Stats ps = plan_stats(service);
    EXPECT_EQ(ps.entries, 0u);
    EXPECT_EQ(ps.bytes, 0u);
    EXPECT_EQ(ps.hits + ps.misses, 0u);
    // A repeat of each rejected body is rejected the same way.
    EXPECT_EQ(call(service, "POST", "/v1/runs", "{nope").status, 400);
    EXPECT_EQ(call(service, "POST", "/v1/runs", kTinyScenario).status, 400);
  }
  ASSERT_EQ(call(service, "POST", "/v1/runs", one_cell).status, 202);
  const PlanMemo::Stats ps = plan_stats(service);
  EXPECT_EQ(ps.entries, 1u);
  EXPECT_EQ(ps.misses, 1u);
}

TEST(PlanMemo, EvictionKeepsKeysCorrectWithinTheBudget) {
  JobService service(memo_options());
  // One-cell bodies of about 300 KB each (the description pads them), so
  // the budget holds three and the fourth evicts the oldest.
  const auto body = [](int seed, std::size_t pad) {
    return R"({"name": "memo", "description": ")" + std::string(pad, 'x') +
           R"(", "base_seed": )" + std::to_string(seed) +
           R"(, "scenario": {"n": 16}, "seeds": 1,
              "sim": {"rounds": 2, "slots_per_round": 4}})";
  };
  constexpr std::size_t kPad = 300 * 1024;
  constexpr int kBodies = 6;
  std::vector<std::vector<config::JobSpec>> specs;
  for (int i = 0; i < kBodies; ++i) {
    specs.push_back(stock_store(service, body(i, kPad)));
    const HttpResponse r = call(service, "POST", "/v1/runs", body(i, kPad));
    ASSERT_EQ(r.status, 202) << i;
    EXPECT_EQ(status_jobs(r.body), spec_jobs(specs.back())) << i;
    const PlanMemo::Stats ps = plan_stats(service);
    EXPECT_LE(ps.bytes, PlanMemo::kBudgetBytes) << i;
    EXPECT_EQ(ps.entries, std::min(i + 1, 3)) << i;
  }
  // The newest body is a hit, the oldest was evicted and misses; both
  // still come back with config::plan's keys.
  PlanMemo::Stats before = plan_stats(service);
  for (const int i : {kBodies - 1, 0}) {
    const HttpResponse r = call(service, "POST", "/v1/runs", body(i, kPad));
    ASSERT_EQ(r.status, 202);
    EXPECT_EQ(status_jobs(r.body), spec_jobs(specs[i])) << i;
  }
  PlanMemo::Stats after = plan_stats(service);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_LE(after.bytes, PlanMemo::kBudgetBytes);

  // A body larger than the whole budget is served but never kept.
  const std::string huge = body(99, PlanMemo::kBudgetBytes);
  const std::vector<config::JobSpec> huge_specs = stock_store(service, huge);
  before = plan_stats(service);
  for (int round = 0; round < 2; ++round) {
    const HttpResponse r = call(service, "POST", "/v1/runs", huge);
    ASSERT_EQ(r.status, 202);
    EXPECT_EQ(status_jobs(r.body), spec_jobs(huge_specs));
  }
  after = plan_stats(service);
  EXPECT_EQ(after.misses, before.misses + 2);
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
}

TEST(PlanMemo, ConcurrentIdenticalPostsSimulateEachCellOnce) {
  // Two waves of C threads post the same grid: the first races cold (any
  // of them may plan it), the second finds it in the memo. Every cell still
  // simulates once, and every manifest is the same.
  JobService service(ServiceOptions{/*workers=*/2, "", "", 100});
  constexpr std::size_t kThreads = 4;
  std::vector<std::string> manifests;
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<HttpResponse> replies(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&service, &replies, t] {
        replies[t] = call(service, "POST", "/v1/runs", kTinyScenario,
                          {{"wait", "1"}});
      });
    for (std::thread& t : threads) t.join();
    for (const HttpResponse& r : replies) {
      EXPECT_EQ(r.status, 200) << r.body;
      manifests.push_back(r.body);
    }
  }
  for (const std::string& m : manifests) EXPECT_EQ(m, manifests.front());
  EXPECT_EQ(service.runner().stats().simulated, 2u);
  const PlanMemo::Stats ps = plan_stats(service);
  EXPECT_EQ(ps.entries, 1u);
  EXPECT_EQ(ps.hits + ps.misses, 2 * kThreads);
  EXPECT_GE(ps.hits, kThreads);
}

}  // namespace
}  // namespace qlec::serve
