// Job-oriented execution layer over the sweep grid (DESIGN.md §13): a grid
// run decomposes into
//
//   plan()    grid cells -> immutable JobSpecs, each keyed by a digest of
//             the fully-resolved config echo + kCodeVersion
//   submit()  JobSpec -> JobHandle (status / cancel / await) on a shared
//             scheduler with priorities and in-flight deduplication; a key
//             the store holds comes back done, without queueing
//   ResultStore  content-addressed cache: a key that was simulated once —
//             this process or any earlier run sharing the store directory —
//             returns its CellResult without re-simulation
//
// run_grid() (config/runner.hpp) is the synchronous driver over it, used by
// qlec_run, world_sweep and the tests; qlec_serve and the perfbench
// serve_mix workload drive this interface directly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "config/runner.hpp"
#include "config/version.hpp"

namespace qlec::config {

/// Content-address of one grid cell: a 16-hex-digit FNV-1a digest over
/// `code_version` + the fully-resolved config echo (experiment_to_json), so
/// any config delta — and any semantics-changing build — changes the key.
/// The `sim.telemetry` block is excluded: telemetry is strictly
/// observational (it can never change a trajectory), so two runs differing
/// only in where they stream events share one cached result. Note that a
/// cache hit therefore emits no fresh telemetry for the skipped simulation.
std::string job_key(const ExperimentConfig& cfg,
                    const std::string& code_version = kCodeVersion);

/// Immutable unit of schedulable work: one grid cell plus its cache key.
struct JobSpec {
  std::string key;                 ///< job_key(config)
  std::string label;               ///< cell label ("" for a no-sweep run)
  std::vector<Override> bindings;  ///< the axis assignments (sweep order)
  ExperimentConfig config;         ///< fully resolved
};

/// Grid -> specs (cell order preserved). `plan_cell` is the single-cell
/// form.
JobSpec plan_cell(const SweepCell& cell);
std::vector<JobSpec> plan(const std::vector<SweepCell>& cells);

enum class JobState {
  kQueued,     ///< accepted, waiting for a worker
  kRunning,    ///< a worker is simulating
  kDone,       ///< result available (simulated or served from cache)
  kCancelled,  ///< cancelled before completion; no result, no cache entry
  kFailed,     ///< the simulation threw; await() rethrows
};
const char* job_state_name(JobState s) noexcept;

/// Thrown by JobHandle::await() for a cancelled job.
struct JobCancelled : std::runtime_error {
  JobCancelled() : std::runtime_error("job cancelled") {}
};

/// Content-addressed CellResult cache. Thread-safe. With a directory, every
/// insert also lands on disk as `<dir>/<key>.json` (a schema-versioned cell
/// record written atomically via rename, so a crash or cancellation can
/// never leave a partial entry), and lookups fall back to disk — a store
/// directory warms across processes. With an empty dir it is memory-only.
/// The memory tier holds each result once, immutable and shared with the
/// jobs it answers, and with its keyed_json rendered when it was inserted
/// or promoted from disk, so a hit's manifest renders only its label and
/// bindings.
class ResultStore {
 public:
  explicit ResultStore(std::string dir = "");

  /// The cached result for `key`, or nullopt. Disk entries that fail the
  /// strict record parse (corruption, future schema, foreign code version)
  /// are treated as misses.
  std::optional<CellResult> lookup(const std::string& key) const;
  /// lookup() without the copy: the stored result itself, or null.
  std::shared_ptr<const CellResult> find(const std::string& key) const;
  /// Stores a copy of `result`, with its keyed_json rendered, and returns
  /// it.
  std::shared_ptr<const CellResult> insert(const std::string& key,
                                           const CellResult& result);

  const std::string& dir() const noexcept { return dir_; }

  struct Stats {
    std::uint64_t hits = 0;       ///< lookups served (memory or disk)
    std::uint64_t disk_hits = 0;  ///< subset of hits that came from disk
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
  };
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::string dir_;
  // find() promotes disk hits into memory, hence mutable.
  mutable std::unordered_map<std::string, std::shared_ptr<const CellResult>>
      memory_;
  mutable Stats stats_;
};

namespace detail {
struct Job;
}  // namespace detail

/// Shared-state view of one submitted job. Copyable; all copies observe the
/// same job. A default-constructed handle is empty (state() == kFailed).
class JobHandle {
 public:
  JobHandle() = default;

  const std::string& key() const noexcept;
  const std::string& label() const noexcept;
  JobState state() const;
  /// True once state() == kDone and the result came from the ResultStore or
  /// from coalescing onto an identical in-flight job (i.e. this submission
  /// ran no simulation of its own).
  bool from_cache() const;

  /// Requests cancellation. Returns true when the job was still queued — it
  /// will never run and await() will throw JobCancelled. A running job gets
  /// a best-effort flag: the serial per-seed executor honors it between
  /// replications (the job then ends kCancelled with nothing cached);
  /// otherwise the job completes normally and cancel() returns false.
  bool cancel();

  /// Blocks until the job leaves the queue/run states, then returns the
  /// result with this submission's label/bindings (a coalesced job computes
  /// under the first submitter's identity; metrics/digests/config are
  /// key-determined and shared). Rethrows the job's exception on kFailed
  /// and throws JobCancelled on kCancelled.
  CellResult await() const;

 private:
  friend class JobRunner;
  JobHandle(std::shared_ptr<detail::Job> job, std::string label,
            std::vector<Override> bindings);

  std::shared_ptr<detail::Job> job_;
  std::string label_;
  std::vector<Override> bindings_;
  bool coalesced_ = false;  ///< attached to an identical in-flight job
};

struct JobRunnerOptions {
  /// Scheduler width: how many cells simulate concurrently (>= 1).
  std::size_t workers = 1;
  /// Replication fan-out inside one cell. Serial (the default) additionally
  /// enables between-seed cancellation checks; any policy is bit-identical.
  ExecPolicy within_cell = ExecPolicy::serial();
  /// Optional content-addressed cache, borrowed (must outlive the runner).
  ResultStore* store = nullptr;
};

/// The shared scheduler: a fixed worker pool draining a priority queue of
/// JobSpecs. Higher priority runs first; ties run in submit order.
/// Submitting a key that is already queued or running coalesces onto the
/// existing job, so concurrent identical submissions perform exactly one
/// simulation. A key the store holds is answered by submit() itself: the
/// handle comes back done, and the job never queues or wakes a worker.
class JobRunner {
 public:
  explicit JobRunner(JobRunnerOptions opts = {});
  /// Cancels everything still queued, waits for running jobs, joins.
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Pass an rvalue to hand the spec's config over without a copy; only a
  /// queued job keeps it, and only until it has run.
  JobHandle submit(JobSpec spec, int priority = 0);

  /// Blocks until no job is queued or running.
  void wait_idle() const;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t simulated = 0;   ///< cells actually run
    std::uint64_t cache_hits = 0;  ///< served from the ResultStore
    std::uint64_t coalesced = 0;   ///< attached to an identical live job
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
  };
  Stats stats() const;

 private:
  void worker_loop();
  void run_job(const std::shared_ptr<detail::Job>& job);
  /// A coalesced handle on the live job for `spec.key` when that job is
  /// queued or running (or done, with `accept_done`). Caller holds mutex_.
  std::optional<JobHandle> attach_live(const JobSpec& spec, bool accept_done);

  JobRunnerOptions opts_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;       // queue / stop signal
  mutable std::condition_variable idle_cv_;  // wait_idle
  std::vector<std::shared_ptr<detail::Job>> queue_;  // heap by (prio, seq)
  std::unordered_map<std::string, std::weak_ptr<detail::Job>> live_;
  std::uint64_t next_seq_ = 0;
  std::size_t active_ = 0;
  bool stopping_ = false;
  Stats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace qlec::config
