// qlec_submit — client for a running qlec_serve daemon: POST a scenario
// file, poll the run to completion, fetch the manifest (parsed back through
// the strict schema-versioned reader), and print it in the same formats as
// qlec_run.
//
//   ./build/apps/qlec_submit examples/scenarios/paper_51.json
//       --url http://127.0.0.1:8423
//   ./build/apps/qlec_submit examples/scenarios/golden_replay.json
//       --url http://127.0.0.1:8423 --digest
//       --expect-digests <(cat tests/golden/*.digest)
//   ./build/apps/qlec_submit scenario.json --expect-cached   # CI: assert a
//       resubmission is served entirely from the ResultStore
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "config/runner.hpp"
#include "serve/client.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

using namespace qlec;

const std::vector<std::pair<std::string, std::string>> kOptions = {
    {"<scenario.json>", "scenario file to submit (sent verbatim; the daemon "
                        "validates it)"},
    {"--url <url>", "daemon base URL (default http://127.0.0.1:8423)"},
    {"--priority <n>", "scheduling priority (higher runs first, default 0)"},
    {"--json", "print the JSON manifest to stdout instead of CSV"},
    {"--digest", "print the manifest's per-seed digest lines"},
    {"--expect-digests <file>", "compare digests against <file> (golden "
                                "format: hex lines, # comments); exit 1 on "
                                "mismatch (implies --digest)"},
    {"--expect-cached", "exit 1 unless every cell was served from the "
                        "daemon's cache (no simulation ran)"},
    {"--quiet", "suppress progress output"},
    {"--help", "show this message"},
};

/// Golden-digest file: one 16-hex-digit line per (cell, seed); blank lines
/// and # comments ignored.
std::vector<std::string> read_digest_file(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') out.push_back(line);
    start = end + 1;
  }
  return out;
}

/// Pulls `"key": <value>` scalars out of the small status/submit JSON
/// bodies. The manifest itself goes through the strict parser; this is only
/// for run_id / state / counters, where a full JSON reader would be
/// overkill.
std::string json_scalar(const std::string& body, const std::string& key) {
  const std::string quoted = "\"" + key + "\":";
  const std::size_t at = body.find(quoted);
  if (at == std::string::npos) return "";
  std::size_t start = at + quoted.size();
  while (start < body.size() && body[start] == ' ') ++start;
  if (start >= body.size()) return "";
  if (body[start] == '"') {
    const std::size_t end = body.find('"', start + 1);
    return end == std::string::npos ? ""
                                    : body.substr(start + 1, end - start - 1);
  }
  std::size_t end = start;
  while (end < body.size() && body[end] != ',' && body[end] != '}' &&
         body[end] != ']')
    ++end;
  return body.substr(start, end - start);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("help") || args.positional().empty()) {
    std::fputs(render_usage("qlec_submit", kOptions).c_str(),
               args.has("help") ? stdout : stderr);
    return args.has("help") ? 0 : 2;
  }
  // Read before the error check, so a bad value exits 2.
  const long long priority = args.get_int("priority", 0);
  if (!args.errors().empty()) {
    for (const std::string& key : args.errors())
      std::fprintf(stderr, "qlec_submit: bad value for --%s\n", key.c_str());
    return 2;
  }
  const bool quiet = args.has("quiet");

  const std::string scenario_path = args.positional().front();
  const auto scenario = read_text_file(scenario_path);
  if (!scenario) {
    std::fprintf(stderr, "qlec_submit: cannot read %s\n",
                 scenario_path.c_str());
    return 2;
  }

  const std::string url = args.get_string("url", "http://127.0.0.1:8423");
  std::string host, base_path;
  std::uint16_t port = 0;
  if (!serve::parse_http_url(url, host, port, base_path)) {
    std::fprintf(stderr,
                 "qlec_submit: bad --url %s (http://<ipv4>:<port> expected)\n",
                 url.c_str());
    return 2;
  }

  const auto request = [&](const std::string& method,
                           const std::string& target,
                           const std::string& body) {
    std::string error;
    auto resp = serve::http_request(host, port, method, target, body, &error);
    if (!resp) {
      std::fprintf(stderr, "qlec_submit: %s\n", error.c_str());
      std::exit(1);
    }
    return *resp;
  };

  // Submit without wait=1, then poll: this exercises the whole run
  // lifecycle (202 -> status -> manifest) and gives us the cached count for
  // --expect-cached.
  std::string target = "/v1/runs";
  if (priority != 0) target += "?priority=" + std::to_string(priority);
  const serve::ClientResponse submitted =
      request("POST", target, *scenario);
  if (submitted.status != 202) {
    std::fprintf(stderr, "qlec_submit: submission rejected (%d): %s\n",
                 submitted.status, submitted.body.c_str());
    return 1;
  }
  const std::string run_id = json_scalar(submitted.body, "run_id");
  if (run_id.empty()) {
    std::fprintf(stderr, "qlec_submit: no run_id in response: %s\n",
                 submitted.body.c_str());
    return 1;
  }
  if (!quiet)
    std::fprintf(stderr, "submitted %s as run %s (%s cells)\n",
                 scenario_path.c_str(), run_id.c_str(),
                 json_scalar(submitted.body, "cells").c_str());

  std::string state = "queued", status_body;
  while (state == "queued" || state == "running") {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const serve::ClientResponse status =
        request("GET", "/v1/runs/" + run_id, "");
    if (status.status != 200) {
      std::fprintf(stderr, "qlec_submit: status poll failed (%d): %s\n",
                   status.status, status.body.c_str());
      return 1;
    }
    status_body = status.body;
    state = json_scalar(status_body, "state");
  }
  if (state != "done") {
    std::fprintf(stderr, "qlec_submit: run %s ended %s: %s\n", run_id.c_str(),
                 state.c_str(), status_body.c_str());
    return 1;
  }

  const serve::ClientResponse fetched =
      request("GET", "/v1/runs/" + run_id + "/manifest", "");
  if (fetched.status != 200) {
    std::fprintf(stderr, "qlec_submit: manifest fetch failed (%d): %s\n",
                 fetched.status, fetched.body.c_str());
    return 1;
  }
  config::RunManifest manifest;
  try {
    manifest = config::manifest_from_json(fetched.body);
  } catch (const config::ConfigError& e) {
    std::fprintf(stderr, "qlec_submit: bad manifest from daemon: %s\n",
                 e.what());
    return 1;
  }

  const bool want_digests = args.has("digest") || args.has("expect-digests");
  if (args.has("json"))
    std::printf("%s\n", config::manifest_to_json(manifest).c_str());
  else
    std::fputs(config::manifest_to_csv(manifest).c_str(), stdout);
  if (want_digests)
    std::fputs(config::manifest_digest_lines(manifest).c_str(), stdout);

  if (const auto golden_path = args.get("expect-digests")) {
    const auto golden_text = read_text_file(*golden_path);
    if (!golden_text) {
      std::fprintf(stderr, "qlec_submit: cannot read %s\n",
                   golden_path->c_str());
      return 1;
    }
    const std::vector<std::string> expected = read_digest_file(*golden_text);
    std::vector<std::string> actual;
    for (const config::CellResult& c : manifest.cells)
      actual.insert(actual.end(), c.digests.begin(), c.digests.end());
    if (expected != actual) {
      std::fprintf(stderr,
                   "qlec_submit: digest mismatch vs %s (%zu expected, %zu "
                   "actual)\n",
                   golden_path->c_str(), expected.size(), actual.size());
      for (std::size_t i = 0; i < expected.size() || i < actual.size(); ++i) {
        const std::string e = i < expected.size() ? expected[i] : "(none)";
        const std::string a = i < actual.size() ? actual[i] : "(none)";
        if (e != a)
          std::fprintf(stderr, "  line %zu: expected %s, got %s\n", i + 1,
                       e.c_str(), a.c_str());
      }
      return 1;
    }
    if (!quiet)
      std::fprintf(stderr, "digests match %s\n", golden_path->c_str());
  }

  const std::string cells = json_scalar(status_body, "cells");
  const std::string cached = json_scalar(status_body, "cached");
  if (!quiet)
    std::fprintf(stderr, "run %s done: %s/%s cells from cache\n",
                 run_id.c_str(), cached.c_str(), cells.c_str());
  if (args.has("expect-cached") && cached != cells) {
    std::fprintf(stderr,
                 "qlec_submit: expected a fully cached run, but only %s of "
                 "%s cells hit\n",
                 cached.c_str(), cells.c_str());
    return 1;
  }
  return 0;
}
