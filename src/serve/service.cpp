#include "serve/service.hpp"

#include <charconv>
#include <system_error>
#include <thread>
#include <utility>

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

/// What an entry holds against PlanMemo::kBudgetBytes.
std::size_t entry_bytes(const std::string& body, const PlanMemo::Keys& keys) {
  std::size_t bytes = body.size();
  for (const std::string& k : keys) bytes += k.size();
  return bytes;
}

}  // namespace

std::shared_ptr<const PlanMemo::Keys> PlanMemo::find(const std::string& body) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(body);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second;
}

void PlanMemo::insert(const std::string& body,
                      std::shared_ptr<const Keys> keys) {
  const std::size_t bytes = entry_bytes(body, *keys);
  if (bytes > kBudgetBytes) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (map_.count(body) != 0) return;  // a concurrent miss got here first
  while (stats_.bytes + bytes > kBudgetBytes) {
    const auto oldest = map_.find(*order_.front());
    stats_.bytes -= entry_bytes(oldest->first, *oldest->second);
    map_.erase(oldest);
    order_.pop_front();
  }
  // Node-based map: the key string's address is stable until its erase.
  order_.push_back(&map_.emplace(body, std::move(keys)).first->first);
  stats_.bytes += bytes;
}

PlanMemo::Stats PlanMemo::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.entries = map_.size();
  return s;
}

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
  auto run = std::make_shared<Run>();
  std::vector<config::SweepCell> cells;
  try {
    config::ScenarioFile scenario = config::parse_scenario(req.body);
    run->name = std::move(scenario.name);
    run->description = std::move(scenario.description);
    cells = config::expand_grid(std::move(scenario));
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

  // The body was validated and expanded above, as every body is; only its
  // keys can come from the memo. Each cell then moves into its spec.
  std::shared_ptr<const PlanMemo::Keys> keys = plans_.find(req.body);
  const bool planned = keys != nullptr;
  if (!planned) {
    auto fresh = std::make_shared<PlanMemo::Keys>();
    fresh->reserve(cells.size());
    for (const config::SweepCell& cell : cells)
      fresh->push_back(config::job_key(cell.config));
    keys = std::move(fresh);
  }
  run->jobs.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    config::JobSpec spec{(*keys)[i], std::move(cells[i].label),
                         std::move(cells[i].bindings),
                         std::move(cells[i].config)};
    spool_telemetry(spec.config, opts_.telemetry_dir, spec.key);
    run->jobs.push_back(runner_->submit(std::move(spec), priority));
  }
  if (!planned) plans_.insert(req.body, std::move(keys));
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
  const PlanMemo::Stats ps = plans_.stats();
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
  w.key("plans");
  w.begin_object();
  w.key("entries"); w.value(ps.entries);
  w.key("bytes"); w.value(ps.bytes);
  w.key("hits"); w.value(ps.hits);
  w.key("misses"); w.value(ps.misses);
  w.end_object();
  w.key("code_version"); w.value(config::kCodeVersion);
  w.end_object();
  reply_json(resp, 200, w.str());
}

}  // namespace qlec::serve
