#include "config/jobs.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <utility>

#include "config/schema.hpp"
#include "util/csv.hpp"

namespace qlec::config {

namespace detail {

/// Shared state of one scheduled cell. Guarded by `m` except where noted;
/// `cv` signals every state transition out of kQueued/kRunning.
struct Job {
  /// The key is fixed for the job's life (handles read it unlocked). The
  /// worker that takes the job moves the rest out to simulate it, so a
  /// finished job holds its key alone, as a cache-born job does.
  JobSpec spec;
  int priority = 0;
  std::uint64_t seq = 0;

  std::mutex m;
  std::condition_variable cv;
  JobState state = JobState::kQueued;
  bool cached = false;  ///< result came from the ResultStore
  /// Set on kDone; shared with the ResultStore entry when there is one.
  std::shared_ptr<const CellResult> result;
  std::exception_ptr error;
  /// Best-effort mid-run cancel; run_replications polls it before each
  /// serial seed.
  std::atomic<bool> cancel_requested{false};
};

}  // namespace detail

using detail::Job;

namespace {

std::uint64_t fnv1a64(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

}  // namespace

std::string job_key(const ExperimentConfig& cfg,
                    const std::string& code_version) {
  // Telemetry is strictly observational (OBSERVABILITY.md overhead
  // contract): it never changes a trajectory, so it must not change the
  // content address either.
  ExperimentConfig keyed = cfg;
  keyed.sim.telemetry = obs::TelemetryOptions{};
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  h = fnv1a64(h, code_version);
  h = fnv1a64(h, "\n");
  h = fnv1a64(h, experiment_to_json(keyed));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

JobSpec plan_cell(const SweepCell& cell) {
  JobSpec spec;
  spec.key = job_key(cell.config);
  spec.label = cell.label;
  spec.bindings = cell.bindings;
  spec.config = cell.config;
  return spec;
}

std::vector<JobSpec> plan(const std::vector<SweepCell>& cells) {
  std::vector<JobSpec> specs;
  specs.reserve(cells.size());
  for (const SweepCell& cell : cells) specs.push_back(plan_cell(cell));
  return specs;
}

const char* job_state_name(JobState s) noexcept {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

// ---- ResultStore ----

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);  // best effort
  }
}

std::shared_ptr<const CellResult> ResultStore::find(
    const std::string& key) const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = memory_.find(key);
    if (it != memory_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }
  if (!dir_.empty()) {
    if (const auto text = read_text_file(dir_ + "/" + key + ".json")) {
      try {
        auto r = std::make_shared<CellResult>(
            cell_record_from_json(*text, key, kCodeVersion));
        r->keyed_json = render_keyed_json(*r);
        const std::lock_guard<std::mutex> lock(mutex_);
        memory_.emplace(key, r);
        ++stats_.hits;
        ++stats_.disk_hits;
        return r;
      } catch (const ConfigError&) {
        // Corrupt / foreign / future entry: fall through to a miss.
      }
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  return nullptr;
}

std::optional<CellResult> ResultStore::lookup(const std::string& key) const {
  if (const std::shared_ptr<const CellResult> r = find(key)) return *r;
  return std::nullopt;
}

std::shared_ptr<const CellResult> ResultStore::insert(
    const std::string& key, const CellResult& result) {
  auto stored = std::make_shared<CellResult>(result);
  stored->keyed_json = render_keyed_json(*stored);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.inserts;
    memory_.insert_or_assign(key, stored);
  }
  if (dir_.empty()) return stored;
  // Write-then-rename so a concurrent reader (or an interrupted process)
  // never observes a partial record; the disk tier is best-effort — an IO
  // failure only costs future cross-process hits.
  const std::string final_path = dir_ + "/" + key + ".json";
  const std::string tmp =
      final_path + ".tmp" +
      std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  if (write_text_file(tmp, cell_record_to_json(*stored, key, kCodeVersion))) {
    std::error_code ec;
    std::filesystem::rename(tmp, final_path, ec);
    if (ec) std::filesystem::remove(tmp, ec);
  }
  return stored;
}

ResultStore::Stats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ---- JobHandle ----

JobHandle::JobHandle(std::shared_ptr<Job> job, std::string label,
                     std::vector<Override> bindings)
    : job_(std::move(job)),
      label_(std::move(label)),
      bindings_(std::move(bindings)) {}

const std::string& JobHandle::key() const noexcept {
  static const std::string empty;
  return job_ ? job_->spec.key : empty;
}

const std::string& JobHandle::label() const noexcept { return label_; }

JobState JobHandle::state() const {
  if (!job_) return JobState::kFailed;
  const std::lock_guard<std::mutex> lock(job_->m);
  return job_->state;
}

bool JobHandle::from_cache() const {
  if (!job_) return false;
  const std::lock_guard<std::mutex> lock(job_->m);
  return job_->state == JobState::kDone && (job_->cached || coalesced_);
}

bool JobHandle::cancel() {
  if (!job_) return false;
  bool was_queued = false;
  {
    const std::lock_guard<std::mutex> lock(job_->m);
    if (job_->state == JobState::kQueued) {
      job_->state = JobState::kCancelled;
      was_queued = true;
    } else {
      job_->cancel_requested.store(true, std::memory_order_relaxed);
    }
  }
  if (was_queued) job_->cv.notify_all();
  return was_queued;
}

CellResult JobHandle::await() const {
  if (!job_) throw std::runtime_error("await on an empty JobHandle");
  std::unique_lock<std::mutex> lock(job_->m);
  job_->cv.wait(lock, [this] {
    return job_->state == JobState::kDone ||
           job_->state == JobState::kCancelled ||
           job_->state == JobState::kFailed;
  });
  if (job_->state == JobState::kCancelled) throw JobCancelled();
  if (job_->state == JobState::kFailed) std::rethrow_exception(job_->error);
  CellResult r = *job_->result;
  // A coalesced submission computed under the first submitter's identity;
  // metrics/digests/config are key-determined, the presentation is ours.
  r.label = label_;
  r.bindings = bindings_;
  return r;
}

// ---- JobRunner ----

namespace {

/// Max-heap order: higher priority first, then FIFO by sequence number.
bool heap_before(const std::shared_ptr<Job>& a, const std::shared_ptr<Job>& b) {
  if (a->priority != b->priority) return a->priority < b->priority;
  return a->seq > b->seq;
}

}  // namespace

JobRunner::JobRunner(JobRunnerOptions opts) : opts_(opts) {
  const std::size_t n = std::max<std::size_t>(1, opts_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

JobRunner::~JobRunner() {
  std::vector<std::shared_ptr<Job>> doomed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    doomed.swap(queue_);
  }
  cv_.notify_all();
  for (const std::shared_ptr<Job>& job : doomed) {
    bool cancelled = false;
    {
      const std::lock_guard<std::mutex> lock(job->m);
      if (job->state == JobState::kQueued) {
        job->state = JobState::kCancelled;
        cancelled = true;
      }
    }
    if (cancelled) {
      job->cv.notify_all();
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cancelled;
    }
  }
  for (std::thread& t : workers_) t.join();
  idle_cv_.notify_all();
}

std::optional<JobHandle> JobRunner::attach_live(const JobSpec& spec,
                                                bool accept_done) {
  const auto it = live_.find(spec.key);
  if (it == live_.end()) return std::nullopt;
  const std::shared_ptr<Job> existing = it->second.lock();
  if (existing == nullptr) return std::nullopt;
  {
    const std::lock_guard<std::mutex> jl(existing->m);
    if (existing->state != JobState::kQueued &&
        existing->state != JobState::kRunning &&
        !(accept_done && existing->state == JobState::kDone))
      return std::nullopt;
  }
  ++stats_.coalesced;
  JobHandle h(existing, spec.label, spec.bindings);
  h.coalesced_ = true;
  return h;
}

JobHandle JobRunner::submit(JobSpec spec, int priority) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
      throw std::runtime_error("JobRunner::submit after shutdown");
    ++stats_.submitted;
    if (auto h = attach_live(spec, /*accept_done=*/false)) return *h;
  }
  // A stored key is answered here, without the runner lock held through
  // the lookup: the handle is born done and never reaches a worker.
  if (opts_.store != nullptr) {
    if (auto hit = opts_.store->find(spec.key)) {
      auto job = std::make_shared<Job>();
      job->spec.key = spec.key;  // all a finished job's handles read
      job->result = std::move(hit);
      job->cached = true;
      job->state = JobState::kDone;
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cache_hits;
      return JobHandle(std::move(job), std::move(spec.label),
                       std::move(spec.bindings));
    }
  }
  auto job = std::make_shared<Job>();
  JobHandle handle(job, spec.label, spec.bindings);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
      throw std::runtime_error("JobRunner::submit after shutdown");
    // An identical submission may have queued the key since the first
    // look, and even finished it after the lookup missed; its result is
    // this one's.
    if (auto h = attach_live(spec, /*accept_done=*/opts_.store != nullptr))
      return *h;
    job->spec = std::move(spec);
    job->priority = priority;
    job->seq = next_seq_++;
    live_[job->spec.key] = job;
    queue_.push_back(std::move(job));
    std::push_heap(queue_.begin(), queue_.end(), heap_before);
  }
  cv_.notify_one();
  return handle;
}

void JobRunner::wait_idle() const {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

JobRunner::Stats JobRunner::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void JobRunner::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      std::pop_heap(queue_.begin(), queue_.end(), heap_before);
      job = std::move(queue_.back());
      queue_.pop_back();
      ++active_;
    }
    run_job(job);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void JobRunner::run_job(const std::shared_ptr<Job>& job) {
  // This worker is the job's one reader of its spec beyond the key, so it
  // takes the config, label and bindings for itself, cancelled or not: the
  // job keeps its key alone, and the config is freed with `cell`.
  SweepCell cell;
  cell.bindings = std::move(job->spec.bindings);
  cell.label = std::move(job->spec.label);
  cell.config = std::move(job->spec.config);
  {
    const std::lock_guard<std::mutex> lock(job->m);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    job->state = JobState::kRunning;
  }
  // Stats are bumped BEFORE the terminal state is published: an awaiter
  // that wakes from this job must already see it in stats() (the load
  // bench reads per-phase deltas that way).
  try {
    CellResult r = run_cell(cell, opts_.within_cell, &job->cancel_requested);
    // Insert before publishing kDone so a submitter that awaits this job
    // and immediately resubmits the key is guaranteed a hit.
    std::shared_ptr<const CellResult> result =
        opts_.store != nullptr
            ? opts_.store->insert(job->spec.key, r)
            : std::make_shared<const CellResult>(std::move(r));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.simulated;
    }
    {
      const std::lock_guard<std::mutex> lock(job->m);
      job->result = std::move(result);
      job->state = JobState::kDone;
    }
    job->cv.notify_all();
  } catch (const JobCancelled&) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cancelled;
    }
    {
      const std::lock_guard<std::mutex> lock(job->m);
      job->state = JobState::kCancelled;
    }
    job->cv.notify_all();
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.failed;
    }
    {
      const std::lock_guard<std::mutex> lock(job->m);
      job->error = std::current_exception();
      job->state = JobState::kFailed;
    }
    job->cv.notify_all();
  }
}

}  // namespace qlec::config
