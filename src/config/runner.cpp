#include "config/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "config/jobs.hpp"
#include "config/reader.hpp"
#include "config/version.hpp"
#include "obs/telemetry.hpp"

namespace qlec::config {
namespace {

using detail::ObjectReader;

/// The manifest's metric vocabulary: JSON key -> AggregatedMetrics member.
/// Order here is emission order; the parser accepts any subset (absent
/// stats stay empty) and rejects anything outside this table.
struct StatField {
  const char* name;
  RunningStats AggregatedMetrics::* member;
};

constexpr StatField kStatFields[] = {
    {"pdr", &AggregatedMetrics::pdr},
    {"energy_j", &AggregatedMetrics::total_energy},
    {"first_death_round", &AggregatedMetrics::first_death},
    {"half_death_round", &AggregatedMetrics::half_death},
    {"latency_slots", &AggregatedMetrics::mean_latency},
    {"heads_per_round", &AggregatedMetrics::heads_per_round},
    {"generated", &AggregatedMetrics::generated},
    {"delivered", &AggregatedMetrics::delivered},
    {"lost_link", &AggregatedMetrics::lost_link},
    {"lost_queue", &AggregatedMetrics::lost_queue},
    {"lost_dead", &AggregatedMetrics::lost_dead},
    {"recovery_rounds", &AggregatedMetrics::recovery_rounds},
};

void write_stat(JsonWriter& w, const char* name, const RunningStats& s) {
  w.key(name);
  w.begin_object();
  w.key("count"); w.value(s.count());
  w.key("mean"); w.value(s.mean());
  // Derived from the moments below; emitted for human readers and accepted
  // (but recomputed, never trusted) by the parser.
  w.key("ci95"); w.value(s.ci95_halfwidth());
  w.key("m2"); w.value(s.m2());
  w.key("min"); w.value(s.min());
  w.key("max"); w.value(s.max());
  w.end_object();
}

RunningStats stat_from_json(const JsonValue& v, const std::string& path) {
  ObjectReader r(v, path);
  const long long count = r.integer("count", 0, 0);
  double mean = 0.0, m2 = 0.0, min = 0.0, max = 0.0, ci95 = 0.0;
  r.number("mean", mean);
  r.number("ci95", ci95);  // derived; ignored
  r.number("m2", m2, 0.0);
  r.number("min", min);
  r.number("max", max);
  r.finish();
  return RunningStats::from_moments(static_cast<std::size_t>(count), mean, m2,
                                    min, max);
}

/// The cell body members that the job key fixes; see
/// CellResult::keyed_json.
void write_keyed_members(JsonWriter& w, const CellResult& c) {
  w.key("protocol"); w.value(c.metrics.protocol);
  w.key("metrics");
  w.begin_object();
  for (const StatField& f : kStatFields)
    write_stat(w, f.name, c.metrics.*(f.member));
  w.end_object();
  w.key("digests");
  w.begin_array();
  for (const std::string& d : c.digests) w.value(d);
  w.end_array();
  w.key("config");
  write_experiment(w, c.config);
}

void write_cell_body(JsonWriter& w, const CellResult& c) {
  w.key("label"); w.value(c.label);
  w.key("bindings");
  w.begin_object();
  for (const auto& [path, value] : c.bindings) {
    w.key(path);
    write_value(w, value);
  }
  w.end_object();
  if (c.keyed_json)
    w.raw_value(*c.keyed_json);
  else
    write_keyed_members(w, c);
}

/// Parses the shared cell-body keys out of `r` (the caller owns any extra
/// envelope keys — schema_version etc. — and the final finish()).
CellResult cell_body_from_reader(ObjectReader& r) {
  CellResult c;
  r.string_field("label", c.label);
  if (const JsonValue* b = r.find("bindings")) {
    if (!b->is_object())
      throw ConfigError(r.sub("bindings"),
                        "expected object, got " + detail::describe(*b));
    for (const auto& [path, value] : b->members())
      c.bindings.emplace_back(path, value);
  }
  r.string_field("protocol", c.metrics.protocol);
  if (const JsonValue* m = r.find("metrics")) {
    ObjectReader mr(*m, r.sub("metrics"));
    for (const StatField& f : kStatFields) {
      if (const JsonValue* s = mr.find(f.name))
        c.metrics.*(f.member) = stat_from_json(*s, mr.sub(f.name));
    }
    mr.finish();
  }
  if (const JsonValue* d = r.find("digests")) {
    if (!d->is_array())
      throw ConfigError(r.sub("digests"),
                        "expected array, got " + detail::describe(*d));
    for (std::size_t i = 0; i < d->size(); ++i) {
      const JsonValue& item = d->at(i);
      if (!item.is_string())
        throw ConfigError(r.sub("digests") + "[" + std::to_string(i) + "]",
                          "expected string, got " + detail::describe(item));
      c.digests.push_back(item.as_string());
    }
  }
  if (const JsonValue* cfg = r.find("config")) {
    c.config = experiment_from_json(*cfg, r.sub("config"));
  } else {
    throw ConfigError(r.sub("config"), "missing config echo");
  }
  return c;
}

/// Reads and validates the required "schema_version" envelope key.
void check_schema_version(ObjectReader& r) {
  const JsonValue* v = r.find("schema_version");
  if (v == nullptr)
    throw ConfigError(r.sub("schema_version"),
                      "missing (this build writes version " +
                          std::to_string(kManifestSchemaVersion) + ")");
  if (!v->is_number() ||
      v->as_double() != static_cast<double>(v->as_int()) || v->as_int() < 1)
    throw ConfigError(r.sub("schema_version"),
                      "expected integer ≥ 1, got " + detail::describe(*v));
  const long long n = v->as_int();
  if (n > kManifestSchemaVersion)
    throw ConfigError(
        r.sub("schema_version"),
        "unsupported future version " + std::to_string(n) +
            " (this build reads ≤ " +
            std::to_string(kManifestSchemaVersion) + ")");
}

JsonValue parse_document(const std::string& text) {
  std::string error;
  const auto v = parse_json(text, &error);
  if (!v) throw ConfigError("", "malformed JSON: " + error);
  return *v;
}

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CellResult run_cell(const SweepCell& cell, const ExecPolicy& exec,
                    const std::atomic<bool>* cancel) {
  CellResult r;
  r.bindings = cell.bindings;
  r.label = cell.label;
  r.config = cell.config;
  const ExperimentConfig& cfg = cell.config;
  const auto add_run = [&r, &cfg](const SimResult& run) {
    r.metrics.add(run);
    if (cfg.sim.trace.record) r.digests.push_back(trace_digest_hex(run.trace));
  };
  if (exec.is_serial() && cancel != nullptr) {
    // Seed-at-a-time so the cancellation flag is honored between
    // replications. Bit-identical to the batch path: replication i always
    // runs seed base_seed + i, and the per-seed telemetry suffix is applied
    // exactly when the batch path would apply it.
    for (std::size_t s = 0; s < cfg.seeds; ++s) {
      if (cancel->load(std::memory_order_relaxed)) throw JobCancelled();
      ExperimentConfig one = cfg;
      one.seeds = 1;
      one.base_seed = cfg.base_seed + s;
      if (cfg.seeds > 1 && cfg.sim.telemetry.enabled)
        one.sim.telemetry =
            obs::Telemetry::with_seed_suffix(cfg.sim.telemetry, s);
      for (const SimResult& run :
           run_replications(one.protocol.name, one, ExecPolicy::serial()))
        add_run(run);
    }
    return r;
  }
  for (const SimResult& run :
       run_replications(cfg.protocol.name, cfg, exec))
    add_run(run);
  return r;
}

RunManifest run_grid(const std::vector<SweepCell>& cells,
                     const ExecPolicy& exec, ResultStore* store,
                     void (*progress)(const SweepCell&, std::size_t,
                                      std::size_t)) {
  JobRunnerOptions opts;
  opts.store = store;
  // One level of threads, not jobs²: a pool runs whole cells side by side,
  // unless there is only one cell to run.
  if (exec.is_pool() && cells.size() == 1) {
    opts.within_cell = exec;
  } else if (exec.is_pool()) {
    const std::size_t jobs =
        exec.threads() > 0
            ? exec.threads()
            : std::max(1u, std::thread::hardware_concurrency());
    opts.workers = std::min(jobs, cells.size());
  }
  JobRunner runner(opts);
  std::vector<JobHandle> handles;
  handles.reserve(cells.size());
  for (const JobSpec& spec : plan(cells))
    handles.push_back(runner.submit(spec));
  RunManifest m;
  m.cells.reserve(cells.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    m.cells.push_back(handles[i].await());
    if (progress != nullptr) progress(cells[i], i, cells.size());
  }
  return m;
}

std::shared_ptr<const std::string> render_keyed_json(const CellResult& c) {
  JsonWriter w;
  w.begin_object();
  write_keyed_members(w, c);
  w.end_object();
  const std::string& object = w.str();  // the members, braced
  return std::make_shared<const std::string>(
      object.substr(1, object.size() - 2));
}

std::string manifest_to_json(const RunManifest& m) {
  JsonWriter w;
  w.begin_object();
  w.key("schema_version"); w.value(kManifestSchemaVersion);
  w.key("name"); w.value(m.name);
  w.key("description"); w.value(m.description);
  w.key("cells");
  w.begin_array();
  for (const CellResult& c : m.cells) {
    w.begin_object();
    write_cell_body(w, c);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

RunManifest manifest_from_json(const std::string& text) {
  const JsonValue doc = parse_document(text);
  ObjectReader r(doc, "");
  check_schema_version(r);
  RunManifest m;
  r.string_field("name", m.name);
  r.string_field("description", m.description);
  if (const JsonValue* cells = r.find("cells")) {
    if (!cells->is_array())
      throw ConfigError("cells",
                        "expected array, got " + detail::describe(*cells));
    for (std::size_t i = 0; i < cells->size(); ++i) {
      const std::string path = "cells[" + std::to_string(i) + "]";
      ObjectReader cr(cells->at(i), path);
      m.cells.push_back(cell_body_from_reader(cr));
      cr.finish();
    }
  }
  r.finish();
  return m;
}

std::string cell_record_to_json(const CellResult& c, const std::string& key,
                                const std::string& code_version) {
  JsonWriter w;
  w.begin_object();
  w.key("schema_version"); w.value(kManifestSchemaVersion);
  w.key("code_version"); w.value(code_version);
  w.key("key"); w.value(key);
  write_cell_body(w, c);
  w.end_object();
  return w.str();
}

CellResult cell_record_from_json(const std::string& text,
                                 const std::string& expect_key,
                                 const std::string& expect_code_version) {
  const JsonValue doc = parse_document(text);
  ObjectReader r(doc, "");
  check_schema_version(r);
  std::string code_version, key;
  r.string_field("code_version", code_version);
  r.string_field("key", key);
  if (code_version != expect_code_version)
    throw ConfigError("code_version", "record written by \"" + code_version +
                                          "\", expected \"" +
                                          expect_code_version + "\"");
  if (key != expect_key)
    throw ConfigError(
        "key", "record is for " + key + ", expected " + expect_key);
  CellResult c = cell_body_from_reader(r);
  r.finish();
  return c;
}

std::string manifest_to_csv(const RunManifest& m) {
  std::string out =
      "label,protocol,seeds,pdr,pdr_ci95,energy_j,energy_ci95,"
      "latency_slots,first_death_round,half_death_round,heads_per_round,"
      "generated,delivered,first_death_ci95,lost_link,lost_queue,"
      "lost_dead\n";
  char buf[256];
  for (const CellResult& c : m.cells) {
    out += csv_quote(c.label);
    std::snprintf(buf, sizeof buf,
                  ",%s,%zu,%.6f,%.6f,%.6f,%.6f,%.3f,%.1f,%.1f,%.3f,%.1f,"
                  "%.1f,%.1f,%.1f,%.1f,%.1f\n",
                  c.metrics.protocol.c_str(), c.metrics.pdr.count(),
                  c.metrics.pdr.mean(), c.metrics.pdr.ci95_halfwidth(),
                  c.metrics.total_energy.mean(),
                  c.metrics.total_energy.ci95_halfwidth(),
                  c.metrics.mean_latency.mean(), c.metrics.first_death.mean(),
                  c.metrics.half_death.mean(),
                  c.metrics.heads_per_round.mean(), c.metrics.generated.mean(),
                  c.metrics.delivered.mean(),
                  c.metrics.first_death.ci95_halfwidth(),
                  c.metrics.lost_link.mean(), c.metrics.lost_queue.mean(),
                  c.metrics.lost_dead.mean());
    out += buf;
  }
  return out;
}

std::string manifest_digest_lines(const RunManifest& m) {
  std::string out;
  for (const CellResult& c : m.cells) {
    out += "# " + (c.label.empty() ? std::string("(base)") : c.label) + "\n";
    for (const std::string& d : c.digests) out += d + "\n";
  }
  return out;
}

}  // namespace qlec::config
