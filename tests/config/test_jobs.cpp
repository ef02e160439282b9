// The job-oriented runner API (config/jobs.hpp): content-addressed keys,
// the ResultStore cache (memory + disk tiers), scheduler dedup and
// cancellation, manifest/cell-record schema versioning, and the golden
// cached-replay guarantee — a cached cell serves the exact digests the
// simulation produced.
#include "config/jobs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "config/runner.hpp"
#include "config/sweep.hpp"
#include "config/version.hpp"
#include "digest.hpp"
#include "sim/protocols/registry.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace qlec::config {
namespace {

/// Small-but-real cell: 16 nodes, 3 rounds, traces on so results carry
/// digests.
SweepCell tiny_cell(const std::string& protocol = "leach") {
  const ScenarioFile s = parse_scenario(R"({
    "scenario": {"n": 16},
    "sim": {"rounds": 3, "slots_per_round": 4, "trace": {"record": true}},
    "protocol": {"name": ")" + protocol + R"("},
    "seeds": 2,
    "base_seed": 7
  })");
  return expand_grid(s).at(0);
}

/// A cell that keeps a worker busy for seconds; cancel() ends it after the
/// seed in progress.
SweepCell long_cell() {
  return expand_grid(parse_scenario(R"({
    "scenario": {"n": 200},
    "sim": {"rounds": 50},
    "seeds": 1000
  })")).at(0);
}

std::string fresh_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(JobKey, StableAcrossCallsAndObjects) {
  const SweepCell cell = tiny_cell();
  const std::string k1 = job_key(cell.config);
  const std::string k2 = job_key(tiny_cell().config);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1.size(), 16u);
  EXPECT_EQ(k1.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(JobKey, AnyConfigDeltaChangesTheKey) {
  const SweepCell base = tiny_cell();
  SweepCell other = tiny_cell();
  other.config.base_seed += 1;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.rounds += 1;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  // MAC knobs are simulation-relevant (digests diverge when enabled), so
  // they must shift the key even though the default is inert.
  other = tiny_cell();
  other.config.sim.mac.enabled = true;
  EXPECT_NE(job_key(base.config), job_key(other.config));
  other = tiny_cell();
  other.config.sim.mac.cca_range += 1.0;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  EXPECT_NE(job_key(base.config), job_key(tiny_cell("direct").config));
}

TEST(JobKey, EnvironmentAndTrajectoryKnobsShiftTheKey) {
  // sim.env.* and bs.trajectory.* are simulation-relevant (digests diverge
  // once enabled), so every knob must shift the key even while the block
  // defaults are inert.
  const SweepCell base = tiny_cell();
  SweepCell other = tiny_cell();
  other.config.sim.env.enabled = true;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.env.atten_per_unit += 0.01;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.env.obstacles.push_back(
      EnvObstacle{Aabb{{0, 0, 0}, {50, 50, 50}}, 0.0});
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.env.terrain.enabled = true;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.env.water.surface_frac = 0.5;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.env.harvest.per_round = 0.02;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.bs_trajectory.kind = TrajectoryKind::kOrbit;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.bs_trajectory.orbit_period = 7;
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.bs_trajectory.waypoints.push_back({10, 10, 10});
  EXPECT_NE(job_key(base.config), job_key(other.config));

  other = tiny_cell();
  other.config.sim.bs_trajectory.speed = 12.5;
  EXPECT_NE(job_key(base.config), job_key(other.config));
}

TEST(JobKey, CodeVersionDeltaChangesTheKey) {
  const SweepCell cell = tiny_cell();
  EXPECT_NE(job_key(cell.config, kCodeVersion),
            job_key(cell.config, "qlec-sim-9999.99"));
}

TEST(JobKey, TelemetryIsExcluded) {
  // Telemetry is strictly observational, so it must not shift the key —
  // that is what lets a daemon respool event files per job without
  // invalidating the cache.
  const SweepCell base = tiny_cell();
  SweepCell noisy = tiny_cell();
  noisy.config.sim.telemetry.enabled = true;
  noisy.config.sim.telemetry.events_path = "/tmp/somewhere.jsonl";
  EXPECT_EQ(job_key(base.config), job_key(noisy.config));
}

TEST(Plan, PreservesCellOrderAndIdentity) {
  const ScenarioFile s = parse_scenario(R"({
    "scenario": {"n": 16},
    "sim": {"rounds": 2, "slots_per_round": 4},
    "seeds": 1,
    "sweep": {"protocol.name": ["leach", "direct"]}
  })");
  const std::vector<SweepCell> cells = expand_grid(s);
  const std::vector<JobSpec> specs = plan(cells);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].label, cells[0].label);
  EXPECT_EQ(specs[1].label, cells[1].label);
  EXPECT_EQ(specs[0].key, job_key(cells[0].config));
  EXPECT_NE(specs[0].key, specs[1].key);
}

TEST(ResultStore, MemoryRoundTrip) {
  ResultStore store;
  const SweepCell cell = tiny_cell();
  const std::string key = job_key(cell.config);
  EXPECT_FALSE(store.lookup(key).has_value());
  const CellResult r = run_cell(cell);
  store.insert(key, r);
  const auto back = store.lookup(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->digests, r.digests);
  const ResultStore::Stats st = store.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.disk_hits, 0u);
}

TEST(ResultStore, DiskTierWarmsAcrossInstances) {
  const std::string dir = fresh_dir("qlec_store_disk");
  const SweepCell cell = tiny_cell();
  const std::string key = job_key(cell.config);
  const CellResult r = run_cell(cell);
  {
    ResultStore store(dir);
    store.insert(key, r);
    ASSERT_TRUE(std::filesystem::exists(dir + "/" + key + ".json"));
  }
  ResultStore warmed(dir);  // fresh instance, same directory
  const auto back = warmed.lookup(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->digests, r.digests);
  EXPECT_EQ(back->label, r.label);
  EXPECT_DOUBLE_EQ(back->metrics.pdr.mean(), r.metrics.pdr.mean());
  EXPECT_EQ(warmed.stats().disk_hits, 1u);
  // Second lookup is served from the promoted memory entry.
  ASSERT_TRUE(warmed.lookup(key).has_value());
  EXPECT_EQ(warmed.stats().disk_hits, 1u);
  EXPECT_EQ(warmed.stats().hits, 2u);
}

TEST(ResultStore, CorruptOrForeignDiskEntriesReadAsMisses) {
  const std::string dir = fresh_dir("qlec_store_bad");
  const SweepCell cell = tiny_cell();
  const std::string key = job_key(cell.config);
  write_text_file(dir + "/" + key + ".json", "{not json");
  ResultStore store(dir);
  EXPECT_FALSE(store.lookup(key).has_value());
  // A record written under a different code version must also miss.
  write_text_file(dir + "/" + key + ".json",
                  cell_record_to_json(run_cell(cell), key, "other-build"));
  EXPECT_FALSE(store.lookup(key).has_value());
}

TEST(JobRunner, WorkersOverTheCapThrowBeforeAnyThreadStarts) {
  JobRunnerOptions opts;
  opts.workers = kMaxThreads + 1;
  EXPECT_THROW(JobRunner{opts}, std::invalid_argument);
}

TEST(JobRunner, ConcurrentIdenticalSubmitsSimulateOnce) {
  ResultStore store;
  JobRunnerOptions opts;
  opts.workers = 4;
  opts.store = &store;
  JobRunner runner(opts);
  const JobSpec spec = plan_cell(tiny_cell());

  std::vector<std::thread> submitters;
  std::vector<JobHandle> handles(8);
  for (std::size_t i = 0; i < handles.size(); ++i)
    submitters.emplace_back(
        [&runner, &spec, &handles, i] { handles[i] = runner.submit(spec); });
  for (std::thread& t : submitters) t.join();

  const CellResult first = handles[0].await();
  for (JobHandle& h : handles) {
    const CellResult r = h.await();
    EXPECT_EQ(r.digests, first.digests);
    EXPECT_EQ(h.state(), JobState::kDone);
  }
  const JobRunner::Stats st = runner.stats();
  EXPECT_EQ(st.submitted, 8u);
  EXPECT_EQ(st.simulated, 1u);  // the whole point of the dedup layer
  EXPECT_EQ(st.coalesced + st.cache_hits, 7u);
}

TEST(JobRunner, SubmitAfterCompletionHitsTheStore) {
  ResultStore store;
  JobRunnerOptions opts;
  opts.store = &store;
  JobRunner runner(opts);
  const JobSpec spec = plan_cell(tiny_cell());
  const CellResult r1 = runner.submit(spec).await();
  JobHandle again = runner.submit(spec);
  const CellResult r2 = again.await();
  EXPECT_TRUE(again.from_cache());
  EXPECT_EQ(r1.digests, r2.digests);
  EXPECT_EQ(runner.stats().simulated, 1u);
  EXPECT_EQ(runner.stats().cache_hits, 1u);
}

TEST(JobRunner, StoredKeyIsAnsweredAtSubmitPastABusyWorker) {
  ResultStore store;
  const JobSpec stored = plan_cell(tiny_cell());
  const CellResult simulated = run_cell(tiny_cell());
  store.insert(stored.key, simulated);
  JobRunnerOptions opts;
  opts.workers = 1;
  opts.store = &store;
  JobRunner runner(opts);
  JobHandle busy = runner.submit(plan_cell(long_cell()));
  while (busy.state() == JobState::kQueued) std::this_thread::yield();

  JobHandle hit = runner.submit(stored);
  EXPECT_EQ(hit.state(), JobState::kDone);
  EXPECT_TRUE(hit.from_cache());
  EXPECT_EQ(hit.key(), stored.key);
  EXPECT_EQ(busy.state(), JobState::kRunning);
  const JobRunner::Stats st = runner.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.simulated, 0u);
  EXPECT_EQ(hit.await().digests, simulated.digests);
  busy.cancel();
}

TEST(JobRunner, PriorityOrdersTheQueue) {
  // One worker, occupied by a first job; then a low- and a high-priority
  // job. The high one must run (and finish) before the low one.
  ResultStore store;
  JobRunnerOptions opts;
  opts.workers = 1;
  opts.store = &store;
  JobRunner runner(opts);
  runner.submit(plan_cell(tiny_cell("leach")));
  JobHandle low = runner.submit(plan_cell(tiny_cell("direct")), -5);
  JobHandle high = runner.submit(plan_cell(tiny_cell("kmeans")), 5);
  runner.wait_idle();
  EXPECT_EQ(low.state(), JobState::kDone);
  EXPECT_EQ(high.state(), JobState::kDone);
  // Both completed; ordering itself is observable via await() not blocking
  // and the stats showing three distinct simulations.
  EXPECT_EQ(runner.stats().simulated, 3u);
}

TEST(JobRunner, CancelQueuedLeavesNoCacheEntry) {
  const std::string dir = fresh_dir("qlec_cancel_cache");
  ResultStore store(dir);
  JobRunnerOptions opts;
  opts.workers = 1;
  opts.store = &store;
  JobRunner runner(opts);
  // Occupy the single worker so the victim stays queued (priority pins the
  // pop order even if the worker has not yet dequeued).
  JobHandle busy = runner.submit(plan_cell(tiny_cell("leach")), 10);
  const JobSpec victim = plan_cell(tiny_cell("qlec"));
  JobHandle doomed = runner.submit(victim);
  EXPECT_TRUE(doomed.cancel());
  EXPECT_THROW(doomed.await(), JobCancelled);
  EXPECT_EQ(doomed.state(), JobState::kCancelled);
  runner.wait_idle();
  EXPECT_FALSE(store.lookup(victim.key).has_value());
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + victim.key + ".json"));
  // No partial/tmp droppings either.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // just the completed busy job's record
  busy.await();
}

TEST(RunCell, HonorsCancelBetweenSeeds) {
  const SweepCell cell = tiny_cell();
  const std::atomic<bool> already_cancelled{true};
  EXPECT_THROW(run_cell(cell, ExecPolicy::serial(), &already_cancelled),
               JobCancelled);
}

TEST(RunCell, PerSeedSplitIsBitIdenticalToBatch) {
  // The cancellable executor splits a cell into per-seed runs; it must
  // reproduce the batch path exactly or cancellation would change science.
  const SweepCell cell = tiny_cell();
  const std::atomic<bool> never{false};
  const CellResult split = run_cell(cell, ExecPolicy::serial(), &never);
  const CellResult batch = run_cell(cell);
  EXPECT_EQ(split.digests, batch.digests);
  EXPECT_DOUBLE_EQ(split.metrics.pdr.mean(), batch.metrics.pdr.mean());
  EXPECT_DOUBLE_EQ(split.metrics.total_energy.mean(),
                   batch.metrics.total_energy.mean());
}

TEST(Manifest, JsonRoundTripIsExact) {
  RunManifest m;
  m.name = "roundtrip";
  m.description = "exactness check";
  m.cells.push_back(run_cell(tiny_cell("leach")));
  m.cells.push_back(run_cell(tiny_cell("direct")));
  const std::string once = manifest_to_json(m);
  const RunManifest back = manifest_from_json(once);
  EXPECT_EQ(manifest_to_json(back), once);  // fixed point
  ASSERT_EQ(back.cells.size(), 2u);
  EXPECT_EQ(back.cells[0].digests, m.cells[0].digests);
  EXPECT_DOUBLE_EQ(back.cells[1].metrics.pdr.mean(),
                   m.cells[1].metrics.pdr.mean());
}

TEST(Manifest, DeclaresCurrentSchemaVersion) {
  const std::string text = manifest_to_json(RunManifest{});
  EXPECT_NE(text.find("\"schema_version\":1"), std::string::npos);
}

TEST(Manifest, RejectsFutureSchemaVersion) {
  try {
    manifest_from_json(R"({"schema_version": 2, "name": "", )"
                       R"("description": "", "cells": []})");
    FAIL() << "future schema_version must not parse";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.path(), "schema_version");
    EXPECT_NE(std::string(e.what()).find("unsupported future version 2"),
              std::string::npos);
  }
}

TEST(Manifest, RejectsMissingSchemaVersion) {
  try {
    manifest_from_json(R"({"name": "", "description": "", "cells": []})");
    FAIL() << "unversioned manifest must not parse";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.path(), "schema_version");
  }
}

TEST(CellRecord, RoundTripAndGuards) {
  const SweepCell cell = tiny_cell();
  const std::string key = job_key(cell.config);
  const CellResult r = run_cell(cell);
  const std::string rec = cell_record_to_json(r, key, kCodeVersion);
  const CellResult back = cell_record_from_json(rec, key, kCodeVersion);
  EXPECT_EQ(back.digests, r.digests);
  EXPECT_EQ(back.label, r.label);
  EXPECT_THROW(cell_record_from_json(rec, "0000000000000000", kCodeVersion),
               ConfigError);
  EXPECT_THROW(cell_record_from_json(rec, key, "other-build"), ConfigError);
}

TEST(RunGridCompat, WrapperMatchesDirectCells) {
  // run_grid is now a shim over the job layer; its output must be the
  // historical one: cells in grid order, digests identical to run_cell.
  const ScenarioFile s = parse_scenario(R"({
    "scenario": {"n": 16},
    "sim": {"rounds": 2, "slots_per_round": 4, "trace": {"record": true}},
    "seeds": 1,
    "sweep": {"protocol.name": ["leach", "direct"]}
  })");
  const std::vector<SweepCell> cells = expand_grid(s);
  const RunManifest m = run_grid(cells);
  ASSERT_EQ(m.cells.size(), 2u);
  EXPECT_EQ(m.cells[0].label, cells[0].label);
  EXPECT_EQ(m.cells[0].digests, run_cell(cells[0]).digests);
  EXPECT_EQ(m.cells[1].digests, run_cell(cells[1]).digests);
}

/// The acceptance criterion in full: every committed golden digest is
/// reproduced through the job layer, and a second pass over the same store
/// is served entirely from cache with bit-identical digests.
TEST(GoldenReplay, CachedReplayServesCommittedDigests) {
  const auto scenario_text =
      read_text_file(std::string(QLEC_SCENARIO_DIR) + "/golden_replay.json");
  ASSERT_TRUE(scenario_text.has_value());
  const std::vector<SweepCell> cells =
      expand_grid(parse_scenario(*scenario_text));
  ASSERT_EQ(cells.size(), protocol_names().size());

  const std::string dir = fresh_dir("qlec_golden_cache");
  std::vector<std::vector<std::string>> first_digests;
  {
    ResultStore store(dir);
    JobRunnerOptions opts;
    opts.store = &store;
    JobRunner runner(opts);
    for (const JobSpec& spec : plan(cells))
      first_digests.push_back(runner.submit(spec).await().digests);
    EXPECT_EQ(runner.stats().simulated, cells.size());
  }

  // Against the committed goldens, cell-major / seed-minor.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string proto = cells[i].config.protocol.name;
    const auto golden =
        read_text_file(std::string(QLEC_GOLDEN_DIR) + "/" + proto + ".digest");
    ASSERT_TRUE(golden.has_value()) << proto;
    std::string joined;
    for (const std::string& d : first_digests[i]) joined += d + "\n";
    EXPECT_EQ(joined, *golden) << proto;
  }

  // Second pass: fresh runner + fresh store instance, same directory. All
  // cache, zero simulation, identical digests.
  ResultStore warmed(dir);
  JobRunnerOptions opts;
  opts.store = &warmed;
  JobRunner replay(opts);
  std::vector<JobHandle> handles;
  for (const JobSpec& spec : plan(cells)) handles.push_back(replay.submit(spec));
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(handles[i].await().digests, first_digests[i]);
    EXPECT_TRUE(handles[i].from_cache());
  }
  EXPECT_EQ(replay.stats().simulated, 0u);
  EXPECT_EQ(replay.stats().cache_hits, cells.size());
}

// ---- Stored cell bytes ----
//
// The memory tier keeps each result's key-determined members rendered
// (CellResult::keyed_json), and manifests splice them in. Whatever path a
// cell takes, its manifest must equal a render with no cache at all.

TEST(StoredCellBytes, ManifestsEqualACachelessRender) {
  const std::vector<SweepCell> cells = expand_grid(parse_scenario(R"({
    "scenario": {"n": 40},
    "sim": {"rounds": 4, "slots_per_round": 5, "trace": {"record": true}},
    "seeds": 2,
    "base_seed": 11,
    "sweep": {"protocol.name": ["leach", "qlec", "deec"]}
  })"));
  const std::vector<JobSpec> specs = plan(cells);
  RunManifest fresh;
  fresh.name = "stored-bytes";
  fresh.description = "N=40";
  for (const SweepCell& cell : cells) fresh.cells.push_back(run_cell(cell));
  const std::string want = manifest_to_json(fresh);

  const auto submit_all = [&specs](JobRunner& runner) {
    std::vector<JobHandle> handles;
    for (const JobSpec& spec : specs) handles.push_back(runner.submit(spec));
    return handles;
  };
  const auto manifest_of = [&fresh](const std::vector<JobHandle>& handles) {
    RunManifest m;
    m.name = fresh.name;
    m.description = fresh.description;
    for (const JobHandle& h : handles) m.cells.push_back(h.await());
    return manifest_to_json(m);
  };

  const std::string dir = fresh_dir("qlec_stored_bytes");
  {
    ResultStore store(dir);
    JobRunnerOptions opts;
    opts.workers = 1;
    opts.store = &store;
    JobRunner runner(opts);
    // While the only worker is busy, the grid queues (misses) and a second
    // submission of it coalesces onto the queued jobs.
    JobHandle busy = runner.submit(plan_cell(long_cell()), 10);
    const std::vector<JobHandle> miss = submit_all(runner);
    const std::vector<JobHandle> coalesced = submit_all(runner);
    busy.cancel();
    EXPECT_EQ(manifest_of(miss), want);
    EXPECT_EQ(manifest_of(coalesced), want);
    EXPECT_EQ(runner.stats().coalesced, specs.size());

    const std::vector<JobHandle> memory_hit = submit_all(runner);
    for (const JobHandle& h : memory_hit) {
      EXPECT_TRUE(h.from_cache());
      EXPECT_NE(h.await().keyed_json, nullptr);
    }
    EXPECT_EQ(manifest_of(memory_hit), want);
    EXPECT_EQ(runner.stats().cache_hits, specs.size());
    EXPECT_EQ(store.stats().disk_hits, 0u);
  }

  ResultStore warmed(dir);
  JobRunnerOptions opts;
  opts.store = &warmed;
  JobRunner runner(opts);
  const std::vector<JobHandle> disk_hit = submit_all(runner);
  EXPECT_EQ(manifest_of(disk_hit), want);
  EXPECT_EQ(runner.stats().cache_hits, specs.size());
  EXPECT_EQ(warmed.stats().disk_hits, specs.size());

  // A cell record is the same bytes spliced or rendered, on disk too.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string record =
        cell_record_to_json(fresh.cells[i], specs[i].key, kCodeVersion);
    EXPECT_EQ(cell_record_to_json(disk_hit[i].await(), specs[i].key,
                                  kCodeVersion),
              record);
    EXPECT_EQ(read_text_file(dir + "/" + specs[i].key + ".json"), record);
  }
}

// ---- The bytes that address the cache ----
//
// A job key is FNV-1a over kCodeVersion and the config echo, and a disk
// record is the cell body as manifest_to_json writes it. Any drift in how
// numbers or strings are formatted would silently give every cell a new
// key and orphan every on-disk ResultStore record. These literals were
// computed before the writer moved from snprintf to the shared to_chars
// formatter; they change only with a deliberate format or version change.

using test::fnv1a64_hex;

std::vector<SweepCell> scenario_cells(const char* file) {
  const auto text =
      read_text_file(std::string(QLEC_SCENARIO_DIR) + "/" + file);
  if (!text) throw std::runtime_error(std::string("missing ") + file);
  return expand_grid(parse_scenario(*text));
}

TEST(CacheAddressPin, JobKeysOfCommittedScenarios) {
  std::string qlec_key;
  for (const SweepCell& cell : scenario_cells("golden_replay.json"))
    if (cell.config.protocol.name == "qlec") qlec_key = job_key(cell.config);
  EXPECT_EQ(qlec_key, "11b0879886f7804b");

  const std::vector<SweepCell> paper = scenario_cells("paper_51.json");
  ASSERT_EQ(paper.size(), 1u);
  EXPECT_EQ(job_key(paper[0].config), "4e90a1f490d1fa80");
}

// The config echo of every cell of every committed scenario, env, MAC,
// fault and trajectory blocks included: job keys hash these bytes, so a
// schema binding change must leave them identical.
TEST(CacheAddressPin, ConfigEchoOfEveryCommittedScenario) {
  // The two example scenarios joined after the first 26 files were pinned;
  // they get their own literals, so the first ones still compare against
  // the same bytes.
  const auto is_example = [](const std::filesystem::path& p) {
    return p.filename() == "mountain_deployment.json" ||
           p.filename() == "underwater_monitoring.json";
  };
  std::vector<std::string> files, examples;
  for (const char* dir : {QLEC_SCENARIO_DIR, QLEC_PERFBENCH_SCENARIO_DIR})
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
      if (e.path().extension() == ".json")
        (is_example(e.path()) ? examples : files)
            .push_back(e.path().string());
  std::sort(files.begin(), files.end());
  std::sort(examples.begin(), examples.end());
  ASSERT_EQ(files.size(), 26u);
  ASSERT_EQ(examples.size(), 2u);
  const auto echo_all = [](const std::vector<std::string>& paths,
                           std::size_t& cells) {
    std::string echoes;
    for (const std::string& file : paths) {
      const auto text = read_text_file(file);
      if (!text) throw std::runtime_error("missing " + file);
      for (const SweepCell& cell : expand_grid(parse_scenario(*text))) {
        echoes += experiment_to_json(cell.config);
        ++cells;
      }
    }
    return echoes;
  };
  std::size_t cells = 0;
  const std::string echoes = echo_all(files, cells);
  EXPECT_EQ(cells, 248u);
  EXPECT_EQ(echoes.size(), 620555u);
  EXPECT_EQ(fnv1a64_hex(echoes), "632669205a6da9a5");

  std::size_t example_cells = 0;
  const std::string example_echoes = echo_all(examples, example_cells);
  EXPECT_EQ(example_cells, 7u);
  EXPECT_EQ(example_echoes.size(), 17389u);
  EXPECT_EQ(fnv1a64_hex(example_echoes), "71b25c51ba1670b0");
}

TEST(CacheAddressPin, ManifestBytesOfATwoCellRun) {
  const std::vector<SweepCell> cells = expand_grid(parse_scenario(R"({
    "name": "pin",
    "description": "two cells, N=40",
    "scenario": {"n": 40},
    "sim": {"rounds": 5, "slots_per_round": 10, "trace": {"record": true}},
    "protocol": {"qlec": {"total_rounds": 5}},
    "seeds": 2,
    "base_seed": 42,
    "sweep": {"protocol.name": ["leach", "qlec"]}
  })"));
  ASSERT_EQ(cells.size(), 2u);
  RunManifest m = run_grid(cells);
  m.name = "pin";
  m.description = "two cells, N=40";
  const std::string json = manifest_to_json(m);
  EXPECT_EQ(json.size(), 7757u);
  EXPECT_EQ(fnv1a64_hex(json), "a1f9aee40b04a33a");
}

}  // namespace
}  // namespace qlec::config
