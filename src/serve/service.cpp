#include "serve/service.hpp"

#include <charconv>
#include <system_error>
#include <thread>

#include "config/runner.hpp"
#include "config/schema.hpp"
#include "config/sweep.hpp"
#include "config/version.hpp"
#include "obs/telemetry.hpp"

namespace qlec::serve {
namespace {

using config::ConfigError;

void reply_json(HttpResponse& resp, int status, const std::string& body) {
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = body;
}

void reply_error(HttpResponse& resp, int status, const std::string& message,
                 const std::string& path = "") {
  JsonWriter w;
  w.begin_object();
  w.key("error"); w.value(message);
  if (!path.empty()) {
    w.key("path");
    w.value(path);
  }
  w.end_object();
  reply_json(resp, status, w.str());
}

/// Respools per-job telemetry file outputs into the daemon's spool
/// directory, named by the job key so concurrent jobs never share a sink
/// (OBSERVABILITY.md). Key-neutral by construction: job keys exclude the
/// telemetry block.
void spool_telemetry(ExperimentConfig& cfg, const std::string& dir,
                     const std::string& key) {
  obs::TelemetryOptions& t = cfg.sim.telemetry;
  if (!t.enabled || dir.empty()) return;
  if (t.sink == obs::TelemetryOptions::Sink::kFile) {
    t.events_path = dir + "/" + key + ".events.jsonl";
  }
  if (!t.trace_path.empty()) t.trace_path = dir + "/" + key + ".trace.json";
  if (!t.metrics_path.empty())
    t.metrics_path = dir + "/" + key + ".metrics.json";
}

struct JobCounts {
  std::size_t queued = 0, running = 0, done = 0, cancelled = 0, failed = 0;
  std::size_t cached = 0;
  const char* aggregate(std::size_t total) const noexcept {
    if (failed > 0) return "failed";
    if (cancelled > 0) return "cancelled";
    if (done == total) return "done";
    if (running > 0 || done > 0) return "running";
    return "queued";
  }
};

JobCounts count_jobs(const std::vector<config::JobHandle>& jobs) {
  JobCounts c;
  for (const config::JobHandle& h : jobs) {
    switch (h.state()) {
      case config::JobState::kQueued: ++c.queued; break;
      case config::JobState::kRunning: ++c.running; break;
      case config::JobState::kDone:
        ++c.done;
        if (h.from_cache()) ++c.cached;
        break;
      case config::JobState::kCancelled: ++c.cancelled; break;
      case config::JobState::kFailed: ++c.failed; break;
    }
  }
  return c;
}

}  // namespace

JobService::JobService(ServiceOptions opts)
    : opts_(std::move(opts)), store_(opts_.cache_dir) {
  config::JobRunnerOptions ro;
  ro.workers = opts_.workers == 0
                   ? std::max(1u, std::thread::hardware_concurrency())
                   : opts_.workers;
  ro.store = &store_;
  runner_ = std::make_unique<config::JobRunner>(ro);
}

std::shared_ptr<JobService::Run> JobService::find_run(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = runs_.find(id);
  return it == runs_.end() ? nullptr : it->second;
}

void JobService::handle(const HttpRequest& req, HttpResponse& resp) {
  if (req.path == "/healthz") {
    if (req.method != "GET") return reply_error(resp, 405, "GET only");
    JsonWriter w;
    w.begin_object();
    w.key("ok"); w.value(true);
    w.key("service"); w.value("qlec_serve");
    w.key("schema_version"); w.value(config::kManifestSchemaVersion);
    w.key("code_version"); w.value(config::kCodeVersion);
    w.end_object();
    return reply_json(resp, 200, w.str());
  }
  if (req.path == "/stats") {
    if (req.method != "GET") return reply_error(resp, 405, "GET only");
    return stats(resp);
  }
  if (req.path == "/v1/runs") {
    if (req.method != "POST") return reply_error(resp, 405, "POST only");
    return post_runs(req, resp);
  }
  const std::string prefix = "/v1/runs/";
  if (req.path.rfind(prefix, 0) == 0) {
    const std::string rest = req.path.substr(prefix.size());
    const std::size_t slash = rest.find('/');
    const std::string id = rest.substr(0, slash);
    const std::string sub =
        slash == std::string::npos ? "" : rest.substr(slash + 1);
    const std::shared_ptr<Run> run = find_run(id);
    if (run == nullptr)
      return reply_error(resp, 404, "unknown run \"" + id + "\"");
    if (sub.empty()) {
      if (req.method != "GET") return reply_error(resp, 405, "GET only");
      return run_status(*run, resp);
    }
    if (sub == "manifest") {
      if (req.method != "GET") return reply_error(resp, 405, "GET only");
      return run_manifest(*run, resp);
    }
    if (sub == "cancel") {
      if (req.method != "POST") return reply_error(resp, 405, "POST only");
      return run_cancel(*run, resp);
    }
    return reply_error(resp, 404, "unknown endpoint " + req.path);
  }
  reply_error(resp, 404, "unknown endpoint " + req.path);
}

void JobService::post_runs(const HttpRequest& req, HttpResponse& resp) {
  std::vector<config::SweepCell> cells;
  config::ScenarioFile scenario;
  try {
    scenario = config::parse_scenario(req.body);
    cells = config::expand_grid(scenario);
  } catch (const ConfigError& e) {
    return reply_error(resp, 400, e.what(), e.path());
  }
  if (cells.size() > opts_.max_cells)
    return reply_error(resp, 400,
                       "grid has " + std::to_string(cells.size()) +
                           " cells; this daemon accepts at most " +
                           std::to_string(opts_.max_cells));

  int priority = 0;
  if (const auto it = req.query.find("priority"); it != req.query.end()) {
    // Strict: the whole value is one base-10 int, in range.
    const std::string& text = it->second;
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, priority);
    if (ec != std::errc() || ptr != end)
      return reply_error(resp, 400,
                         "priority: expected an integer in int range, got \"" +
                             text + "\"",
                         "priority");
  }
  const bool wait = [&] {
    const auto it = req.query.find("wait");
    return it != req.query.end() && it->second != "0";
  }();

  auto run = std::make_shared<Run>();
  run->name = scenario.name;
  run->description = scenario.description;
  run->jobs.reserve(cells.size());
  for (config::JobSpec& spec : config::plan(cells)) {
    spool_telemetry(spec.config, opts_.telemetry_dir, spec.key);
    run->jobs.push_back(runner_->submit(spec, priority));
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    run->id = "r" + std::to_string(next_run_++);
    runs_[run->id] = run;
  }
  if (wait) return run_manifest(*run, resp);
  run_status(*run, resp);
  resp.status = 202;
}

void JobService::run_status(const Run& run, HttpResponse& resp) {
  const JobCounts c = count_jobs(run.jobs);
  JsonWriter w;
  w.begin_object();
  w.key("run_id"); w.value(run.id);
  w.key("name"); w.value(run.name);
  w.key("state"); w.value(c.aggregate(run.jobs.size()));
  w.key("cells"); w.value(run.jobs.size());
  w.key("queued"); w.value(c.queued);
  w.key("running"); w.value(c.running);
  w.key("done"); w.value(c.done);
  w.key("cached"); w.value(c.cached);
  w.key("cancelled"); w.value(c.cancelled);
  w.key("failed"); w.value(c.failed);
  w.key("jobs");
  w.begin_array();
  for (const config::JobHandle& h : run.jobs) {
    w.begin_object();
    w.key("key"); w.value(h.key());
    w.key("label"); w.value(h.label());
    w.key("state"); w.value(config::job_state_name(h.state()));
    w.key("cached"); w.value(h.from_cache());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  reply_json(resp, 200, w.str());
}

void JobService::run_manifest(const Run& run, HttpResponse& resp) {
  config::RunManifest m;
  m.name = run.name;
  m.description = run.description;
  m.cells.reserve(run.jobs.size());
  try {
    for (const config::JobHandle& h : run.jobs) m.cells.push_back(h.await());
  } catch (const config::JobCancelled&) {
    return reply_error(resp, 409,
                       "run " + run.id + " was cancelled; no manifest");
  } catch (const std::exception& e) {
    return reply_error(resp, 409,
                       "run " + run.id + " degraded: " + e.what());
  }
  reply_json(resp, 200, config::manifest_to_json(m));
}

void JobService::run_cancel(const Run& run, HttpResponse& resp) {
  std::size_t cancelled = 0;
  for (config::JobHandle h : run.jobs)
    if (h.cancel()) ++cancelled;
  JsonWriter w;
  w.begin_object();
  w.key("run_id"); w.value(run.id);
  w.key("cancelled"); w.value(cancelled);
  w.end_object();
  reply_json(resp, 200, w.str());
}

void JobService::stats(HttpResponse& resp) {
  const config::JobRunner::Stats rs = runner_->stats();
  const config::ResultStore::Stats ss = store_.stats();
  std::size_t runs;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    runs = runs_.size();
  }
  JsonWriter w;
  w.begin_object();
  w.key("runs"); w.value(runs);
  w.key("scheduler");
  w.begin_object();
  w.key("submitted"); w.value(rs.submitted);
  w.key("simulated"); w.value(rs.simulated);
  w.key("cache_hits"); w.value(rs.cache_hits);
  w.key("coalesced"); w.value(rs.coalesced);
  w.key("cancelled"); w.value(rs.cancelled);
  w.key("failed"); w.value(rs.failed);
  w.end_object();
  w.key("store");
  w.begin_object();
  w.key("hits"); w.value(ss.hits);
  w.key("disk_hits"); w.value(ss.disk_hits);
  w.key("misses"); w.value(ss.misses);
  w.key("inserts"); w.value(ss.inserts);
  w.key("dir"); w.value(store_.dir());
  w.end_object();
  w.key("code_version"); w.value(config::kCodeVersion);
  w.end_object();
  reply_json(resp, 200, w.str());
}

}  // namespace qlec::serve
