// Executes an expanded sweep grid and renders the run manifest: per-cell
// aggregates as CSV, a BENCH-style JSON summary whose config echo is the
// fully-resolved document (re-parses to the identical grid), and optional
// per-seed trace digests for golden comparisons.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "config/sweep.hpp"
#include "sim/experiment.hpp"

namespace qlec::config {

class ResultStore;

/// Outcome of one grid cell: the cell identity plus cross-seed aggregates.
struct CellResult {
  std::vector<Override> bindings;  ///< the axis assignments (sweep order)
  std::string label;               ///< "" for a no-sweep run
  ExperimentConfig config;         ///< fully resolved (echoed in manifests)
  AggregatedMetrics metrics;
  /// Per-seed trace digests (16 hex digits each) when the cell ran with
  /// sim.trace.record; empty otherwise.
  std::vector<std::string> digests;
  /// The cell body's members from "protocol" through "config", rendered
  /// once by render_keyed_json when the ResultStore stores the result; null
  /// otherwise. They are fixed by the job key, so manifest_to_json and
  /// cell_record_to_json splice them in place of rendering metrics,
  /// digests and config again. Code that edits those fields afterwards
  /// must reset this.
  std::shared_ptr<const std::string> keyed_json;
};

struct RunManifest {
  std::string name;
  std::string description;
  std::vector<CellResult> cells;
};

/// Runs every cell (protocol = cell.config.protocol.name) on the job layer
/// (config/jobs.hpp): all cells are planned and submitted up front and
/// awaited in plan order. Serial runs one cell at a time; a pool over more
/// than one cell runs min(threads, cells) cells at once, each with its
/// seeds serial, and a one-cell grid fans its seeds out instead. Every
/// policy reproduces the serial manifest bit-identically. With a `store`,
/// a cell whose key it holds replays without simulating and fresh cells
/// are stored. `progress` (may be null) is invoked with each cell as its
/// result arrives.
RunManifest run_grid(const std::vector<SweepCell>& cells,
                     const ExecPolicy& exec = ExecPolicy::serial(),
                     ResultStore* store = nullptr,
                     void (*progress)(const SweepCell&, std::size_t index,
                                      std::size_t total) = nullptr);

/// Runs one cell under `exec` — the unit the job layer schedules. When
/// `cancel` is non-null and `exec` is serial, run_replications polls it
/// before each seed; observing it abandons the cell by throwing
/// JobCancelled (the job layer maps that to JobState::kCancelled, and
/// nothing reaches any cache).
CellResult run_cell(const SweepCell& cell,
                    const ExecPolicy& exec = ExecPolicy::serial(),
                    const std::atomic<bool>* cancel = nullptr);

/// The members of `c`'s cell body that its job key fixes ("protocol",
/// "metrics", "digests", "config"), rendered from its fields as
/// manifest_to_json would write them, for CellResult::keyed_json.
std::shared_ptr<const std::string> render_keyed_json(const CellResult& c);

/// BENCH-style JSON: {schema_version, name, description, cells:[{label,
/// bindings, protocol, metrics{...}, digests, config}]}. The config echo is
/// emitted with write_experiment and every metric carries its full Welford
/// state (count/mean/m2/min/max, plus the derived ci95), so
/// manifest_from_json(manifest_to_json(m)) reproduces `m` exactly.
std::string manifest_to_json(const RunManifest& m);

/// Strict inverse of manifest_to_json, built on the same path-qualified
/// ConfigError machinery as the scenario schema: unknown keys, wrong types
/// and malformed stats are rejected with their dotted location, and a
/// schema_version newer than kManifestSchemaVersion fails with a
/// ConfigError at "schema_version" (an old binary must never silently
/// misread a future manifest).
RunManifest manifest_from_json(const std::string& text);

/// One cell as a standalone schema-versioned record — the ResultStore's
/// on-disk format: {schema_version, code_version, key, label, bindings,
/// protocol, metrics, digests, config}.
std::string cell_record_to_json(const CellResult& c, const std::string& key,
                                const std::string& code_version);

/// Strict inverse of cell_record_to_json. Throws ConfigError on anything
/// malformed, on a future schema_version, and on a record whose key or
/// code_version differs from the expected values (a store directory shared
/// across incompatible builds must read as a miss, not as wrong results).
CellResult cell_record_from_json(const std::string& text,
                                 const std::string& expect_key,
                                 const std::string& expect_code_version);

/// One header + one row per cell: label columns, then mean metrics.
std::string manifest_to_csv(const RunManifest& m);

/// All digests in golden-file order (cell-major, seed-minor), one per line,
/// with a leading comment naming each cell — the format
/// `qlec_run --digest --out` writes and `--expect-digests` reads.
std::string manifest_digest_lines(const RunManifest& m);

}  // namespace qlec::config
