// The qlec_serve request brain: scenario JSON in, jobs on a shared
// JobRunner, manifests and stats out (DESIGN.md §13). HTTP-agnostic — the
// HttpServer calls handle(), the tests and the load bench may call it
// directly. Thread-safe: handle() runs concurrently from the HTTP worker
// pool.
//
// API (all JSON):
//   GET  /healthz                     liveness + schema/code versions
//   GET  /stats                       scheduler, store and plan-memo counters
//   POST /v1/runs[?wait=1][&priority=N]
//        body = scenario file (same format as examples/scenarios/*.json);
//        validated through the strict schema -> ConfigError becomes a 400
//        with the path-qualified message. Expands the sweep grid, plans one
//        job per cell (a body submitted before takes its keys from the
//        PlanMemo), submits all. wait=1 blocks and returns the full
//        manifest; otherwise 202 with {run_id, jobs:[...]}.
//   GET  /v1/runs/<id>                per-job states + aggregate state
//   GET  /v1/runs/<id>/manifest       manifest once every job is done (409
//                                     while incomplete or degraded)
//   POST /v1/runs/<id>/cancel         cancel still-queued jobs
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/jobs.hpp"
#include "serve/http.hpp"

namespace qlec::serve {

struct ServiceOptions {
  /// Scheduler width (concurrent cells); 0 = hardware concurrency.
  std::size_t workers = 0;
  /// ResultStore directory; "" keeps the cache in memory only.
  std::string cache_dir;
  /// When set, per-job telemetry file outputs are respooled here as
  /// <dir>/<job key>.{events.jsonl, trace.json, metrics.json}
  /// (OBSERVABILITY.md); "" leaves client-provided paths untouched.
  std::string telemetry_dir;
  /// Per-submission grid cap (the sweep layer itself caps at 10k).
  std::size_t max_cells = 10000;
};

/// The job keys each recently submitted request body planned to, in cell
/// order (DESIGN.md §13). A key is a function of the body's bytes and
/// kCodeVersion alone, so a body seen before can skip rendering and hashing
/// its cells' config echoes. Bounded by kBudgetBytes of body bytes plus key
/// bytes; the oldest entry goes first, and a body that alone exceeds the
/// budget is never kept. Thread-safe.
class PlanMemo {
 public:
  static constexpr std::size_t kBudgetBytes = std::size_t{1} << 20;
  using Keys = std::vector<std::string>;

  /// The keys `body` planned to, or null (counted as a hit or a miss).
  std::shared_ptr<const Keys> find(const std::string& body);
  /// Keeps `keys` for `body`, evicting the oldest entries to fit.
  void insert(const std::string& body, std::shared_ptr<const Keys> keys);

  struct Stats {
    std::size_t entries = 0;
    std::size_t bytes = 0;  ///< body bytes plus key bytes held
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const Keys>> map_;
  std::deque<const std::string*> order_;  ///< map_'s bodies, oldest first
  Stats stats_;
};

class JobService {
 public:
  explicit JobService(ServiceOptions opts = {});

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// The HttpHandler: routes `req` and fills `resp`. Never throws for
  /// client errors (those become 4xx bodies).
  void handle(const HttpRequest& req, HttpResponse& resp);

  config::JobRunner& runner() noexcept { return *runner_; }
  config::ResultStore& store() noexcept { return store_; }

 private:
  struct Run {
    std::string id;
    std::string name;
    std::string description;
    std::vector<config::JobHandle> jobs;
  };

  std::shared_ptr<Run> find_run(const std::string& id);
  void post_runs(const HttpRequest& req, HttpResponse& resp);
  void run_status(const Run& run, HttpResponse& resp);
  void run_manifest(const Run& run, HttpResponse& resp);
  void run_cancel(const Run& run, HttpResponse& resp);
  void stats(HttpResponse& resp);

  ServiceOptions opts_;
  config::ResultStore store_;
  std::unique_ptr<config::JobRunner> runner_;
  PlanMemo plans_;
  std::mutex mutex_;  // guards runs_ / next_run_
  std::map<std::string, std::shared_ptr<Run>> runs_;
  std::uint64_t next_run_ = 1;
};

}  // namespace qlec::serve
