// qlec_run — the declarative experiment driver: load a scenario file
// (examples/scenarios/*.json), expand its sweep grid, run every cell, and
// write the run manifest.
//
//   ./build/apps/qlec_run examples/scenarios/paper_51.json
//   ./build/apps/qlec_run examples/scenarios/fig3_sweep.json --jobs 8
//       --out runs/fig3
//   ./build/apps/qlec_run scenario.json --set scenario.n=500 --dry-run
//   ./build/apps/qlec_run examples/scenarios/paper_51.json
//       --expect-digests tests/golden/paper_51.qlec.digest
//   ./build/apps/qlec_run examples/scenarios/paper_51.json --digest
//       > tests/golden/paper_51.qlec.digest
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "config/jobs.hpp"
#include "config/runner.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

namespace {

using namespace qlec;

const std::vector<std::pair<std::string, std::string>> kOptions = {
    {"<scenario.json>", "scenario file (see examples/scenarios/)"},
    {"--set <path>=<value>", "override a config path before sweep "
                             "expansion (repeatable; pins a matching sweep "
                             "axis)"},
    {"--dry-run", "print the expanded grid and exit without running"},
    {"--jobs <n>", "run n cells at once, or a single cell's replications "
                   "over n threads (0 = hardware default; QLEC_RUN_JOBS "
                   "sets the default)"},
    {"--serial", "force serial execution (overrides --jobs and env)"},
    {"--out <dir>", "write manifest.json, manifest.csv and digests.txt "
                    "into <dir>"},
    {"--serve-cache <dir>", "content-addressed result cache: cells whose "
                            "key (config + code version) is already in "
                            "<dir> replay without simulating, fresh cells "
                            "are stored (QLEC_SERVE_CACHE sets the "
                            "default)"},
    {"--json", "print the JSON manifest to stdout instead of CSV"},
    {"--digest", "record per-seed traces and print only their digest "
                 "lines on stdout (the --expect-digests format; the "
                 "manifest still goes to --out)"},
    {"--expect-digests <file>", "compare digests against <file> (golden "
                                "format: hex lines, # comments); exit 1 on "
                                "mismatch (records traces as --digest does; "
                                "stdout keeps the CSV or --json)"},
    {"--audit", "run the invariant auditor on every cell"},
    {"--audit-throw", "auditor aborts the run on the first violation"},
    {"--quiet", "suppress per-cell progress lines"},
    {"--help", "show this message"},
};

/// "path=value" -> Override. The value is parsed as a JSON scalar/array
/// when it looks like one ("100", "true", "[1,2]"); anything unparseable is
/// taken as a bare string, so --set protocol.name=qlec needs no quoting.
config::Override parse_set(const std::string& arg) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0)
    throw config::ConfigError(
        "--set", "expected <path>=<value>, got \"" + arg + "\"");
  const std::string path = arg.substr(0, eq);
  const std::string text = arg.substr(eq + 1);
  if (const auto v = parse_json(text)) return {path, *v};
  return {path, JsonValue::make_string(text)};
}

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

std::vector<std::string> flat_digests(const config::RunManifest& m) {
  std::vector<std::string> out;
  for (const config::CellResult& c : m.cells)
    out.insert(out.end(), c.digests.begin(), c.digests.end());
  return out;
}

bool g_quiet = false;

void progress(const config::SweepCell& cell, std::size_t index,
              std::size_t total) {
  if (g_quiet) return;
  std::fprintf(stderr, "[%zu/%zu] %s %s\n", index + 1, total,
               cell.config.protocol.name.c_str(),
               cell.label.empty() ? "(base)" : cell.label.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("help") || args.positional().empty()) {
    std::fputs(render_usage("qlec_run", kOptions).c_str(),
               args.has("help") ? stdout : stderr);
    return args.has("help") ? 0 : 2;
  }
  // Read before the error check, so a bad value exits 2.
  const long long jobs = args.get_int(
      "jobs", static_cast<long long>(env::run_jobs()), 0);
  if (!args.errors().empty()) {
    for (const std::string& key : args.errors())
      std::fprintf(stderr, "qlec_run: bad value for --%s\n", key.c_str());
    return 2;
  }
  g_quiet = args.has("quiet");

  const std::string scenario_path = args.positional().front();
  const auto text = read_text_file(scenario_path);
  if (!text) {
    std::fprintf(stderr, "qlec_run: cannot read %s\n", scenario_path.c_str());
    return 2;
  }

  std::vector<config::SweepCell> cells;
  config::ScenarioFile scenario;
  try {
    scenario = config::parse_scenario(*text);
    std::vector<config::Override> overrides;
    for (const std::string& s : args.get_all("set"))
      overrides.push_back(parse_set(s));
    cells = config::expand_grid(scenario, overrides);
  } catch (const config::ConfigError& e) {
    std::fprintf(stderr, "qlec_run: %s: %s\n", scenario_path.c_str(),
                 e.what());
    return 2;
  }

  const bool want_digests = args.has("digest") || args.has("expect-digests");
  for (config::SweepCell& cell : cells) {
    if (want_digests) cell.config.sim.trace.record = true;
    if (args.has("audit")) cell.config.sim.audit.enabled = true;
    if (args.has("audit-throw")) {
      cell.config.sim.audit.enabled = true;
      cell.config.sim.audit.throw_on_violation = true;
    }
  }

  if (args.has("dry-run")) {
    std::printf("%s: %zu cell%s\n",
                scenario.name.empty() ? scenario_path.c_str()
                                      : scenario.name.c_str(),
                cells.size(), cells.size() == 1 ? "" : "s");
    for (const config::SweepCell& cell : cells)
      std::printf("  %s seeds=%zu %s\n", cell.config.protocol.name.c_str(),
                  cell.config.seeds,
                  cell.label.empty() ? "(base)" : cell.label.c_str());
    return 0;
  }

  ExecPolicy exec = ExecPolicy::serial();
  if (!args.has("serial") && (args.has("jobs") || jobs > 0))
    exec = ExecPolicy::pool(static_cast<std::size_t>(jobs));

  // The manifest, CSV and digests are the same at any --jobs (run_grid).
  // An optional content-addressed cache replays a cell whose key is
  // already in the store without simulating.
  const std::string cache_dir =
      args.get_string("serve-cache", env::serve_cache());
  config::RunManifest manifest;
  try {
    config::ResultStore store(cache_dir);
    manifest = config::run_grid(cells, exec, &store, progress);
    if (!cache_dir.empty() && !g_quiet) {
      const config::ResultStore::Stats ss = store.stats();
      std::fprintf(stderr,
                   "serve-cache %s: %llu hit(s), %llu simulated\n",
                   cache_dir.c_str(),
                   static_cast<unsigned long long>(ss.hits),
                   static_cast<unsigned long long>(ss.misses));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qlec_run: %s\n", e.what());
    return 1;
  }
  manifest.name = scenario.name;
  manifest.description = scenario.description;

  if (const auto out_dir = args.get("out")) {
    std::error_code ec;
    std::filesystem::create_directories(*out_dir, ec);
    const std::string base = *out_dir + "/";
    bool ok = write_text_file(base + "manifest.json",
                              config::manifest_to_json(manifest)) &&
              write_text_file(base + "manifest.csv",
                              config::manifest_to_csv(manifest));
    if (want_digests)
      ok = write_text_file(base + "digests.txt",
                           config::manifest_digest_lines(manifest)) &&
           ok;
    if (!ok) {
      std::fprintf(stderr, "qlec_run: cannot write into %s\n",
                   out_dir->c_str());
      return 1;
    }
    if (!g_quiet)
      std::fprintf(stderr, "wrote %smanifest.{json,csv}\n", base.c_str());
  }

  // stdout carries one format, so `--digest > f` is a golden file.
  if (args.has("digest"))
    std::fputs(config::manifest_digest_lines(manifest).c_str(), stdout);
  else if (args.has("json"))
    std::printf("%s\n", config::manifest_to_json(manifest).c_str());
  else
    std::fputs(config::manifest_to_csv(manifest).c_str(), stdout);

  if (const auto golden_path = args.get("expect-digests")) {
    const auto golden_text = read_text_file(*golden_path);
    if (!golden_text) {
      std::fprintf(stderr, "qlec_run: cannot read %s\n",
                   golden_path->c_str());
      return 1;
    }
    const std::vector<std::string> expected = read_digest_file(*golden_text);
    const std::vector<std::string> actual = flat_digests(manifest);
    if (expected != actual) {
      std::fprintf(stderr,
                   "qlec_run: digest mismatch vs %s (%zu expected, %zu "
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
    if (!g_quiet)
      std::fprintf(stderr, "digests match %s\n", golden_path->c_str());
  }
  return 0;
}
