// qlec_serve — the simulation-as-a-service daemon: accept scenario JSON
// over a local HTTP endpoint, schedule the expanded grid on a shared
// JobRunner, and serve manifests out of a content-addressed ResultStore.
//
//   ./build/apps/qlec_serve --port 8423 --cache runs/cache
//   curl -s -XPOST --data-binary @examples/scenarios/golden_replay.json
//       'http://127.0.0.1:8423/v1/runs?wait=1'
//
// The endpoint surface is documented in src/serve/service.hpp and
// EXPERIMENTS.md ("SERVE"). The daemon binds loopback by default and
// speaks no TLS — it is a workstation/CI tool, not an internet service.
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "config/version.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"

namespace {

using namespace qlec;

/// Upper bound on every thread count qlec_serve takes (--workers,
/// --http-workers, QLEC_SERVE_WORKERS): a mistyped count must not start
/// millions of threads.
constexpr long long kMaxThreads = 256;

const std::vector<std::pair<std::string, std::string>> kOptions = {
    {"--host <addr>", "listen address (IPv4 literal, default 127.0.0.1)"},
    {"--port <n>", "listen port (default 8423; 0 picks an ephemeral port, "
                   "printed on startup)"},
    {"--workers <n>", "concurrent cells simulated, at most 256 (0 = "
                      "hardware default; QLEC_SERVE_WORKERS sets the "
                      "default)"},
    {"--cache <dir>", "ResultStore directory — results persist across "
                      "restarts (QLEC_SERVE_CACHE sets the default; unset "
                      "keeps the cache in memory only)"},
    {"--telemetry-dir <dir>", "respool per-job telemetry file outputs here "
                              "as <key>.{events.jsonl,trace.json,"
                              "metrics.json}"},
    {"--max-cells <n>", "reject submissions whose grid exceeds n cells "
                        "(default 10000)"},
    {"--http-workers <n>", "HTTP connection handler threads, at most 256 "
                           "(default 4)"},
    {"--help", "show this message"},
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("help")) {
    std::fputs(render_usage("qlec_serve", kOptions).c_str(), stdout);
    return 0;
  }

  // Counts are non-negative, thread counts at most kMaxThreads, and ports
  // fit in 16 bits; every numeric option is read before the error check,
  // so a bad value exits 2.
  serve::ServiceOptions opts;
  opts.workers = static_cast<std::size_t>(args.get_int(
      "workers", static_cast<long long>(env::serve_workers()), 0,
      kMaxThreads));
  opts.cache_dir = args.get_string("cache", env::serve_cache());
  opts.telemetry_dir = args.get_string("telemetry-dir", "");
  opts.max_cells =
      static_cast<std::size_t>(args.get_int("max-cells", 10000, 0));

  const std::string host = args.get_string("host", "127.0.0.1");
  const auto port =
      static_cast<std::uint16_t>(args.get_int("port", 8423, 0, 65535));
  const auto http_workers = static_cast<std::size_t>(
      args.get_int("http-workers", 4, 0, kMaxThreads));
  // get_int bounds --workers but not its default, QLEC_SERVE_WORKERS.
  const bool env_too_big =
      opts.workers > static_cast<std::size_t>(kMaxThreads);
  if (!args.errors().empty() || env_too_big) {
    for (const std::string& key : args.errors())
      std::fprintf(stderr, "qlec_serve: bad value for --%s\n", key.c_str());
    if (env_too_big)
      std::fprintf(stderr, "qlec_serve: bad value for QLEC_SERVE_WORKERS\n");
    return 2;
  }

  // The daemon runs until SIGINT/SIGTERM; block them before any thread is
  // spawned so the signal is always delivered to this sigwait.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    serve::JobService service(opts);
    serve::HttpServer server(
        host, port,
        [&service](const serve::HttpRequest& req, serve::HttpResponse& resp) {
          service.handle(req, resp);
        },
        http_workers);
    std::printf("qlec_serve %s listening on http://%s:%u (cache: %s)\n",
                config::kCodeVersion, host.c_str(), server.port(),
                opts.cache_dir.empty() ? "memory" : opts.cache_dir.c_str());
    std::fflush(stdout);

    int sig = 0;
    sigwait(&sigs, &sig);
    std::fprintf(stderr, "qlec_serve: received signal %d, shutting down\n",
                 sig);
    server.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qlec_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
