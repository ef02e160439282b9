// Shared machinery for the hot-path microbenchmarks under bench/perf/:
// warmup + repeated timing, order statistics over the samples, and the
// machine-readable BENCH_*.json emission contract (see EXPERIMENTS.md §perf).
//
// Environment knobs (util/env.hpp):
//   QLEC_BENCH_FAST=1        shrink cases for the CI perf-smoke job
//   QLEC_PERF_REPEATS=<n>    timed repetitions per case
//   QLEC_PERF_BASELINE=<p>   previously emitted BENCH_scaling.json to embed
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "util/env.hpp"
#include "util/json.hpp"

namespace qlec::perf {

/// Wall-clock samples of one benchmark case, in seconds.
struct Timing {
  std::vector<double> samples;

  double min() const { return quantile(0.0); }
  double median() const { return quantile(0.5); }
  double p90() const { return quantile(0.9); }

  /// Nearest-rank quantile over the sorted samples (0 when empty).
  double quantile(double q) const {
    if (samples.empty()) return 0.0;
    std::vector<double> s = samples;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
  }
};

/// Runs `fn` once untimed (warmup: touch memory, warm caches/allocators),
/// then `repeats` timed repetitions. Pass `warmup = false` for huge cases
/// where one extra repetition costs more than the cache variance it buys.
template <typename F>
Timing time_case(std::size_t repeats, F&& fn, bool warmup = true) {
  Timing t;
  if (warmup) fn();
  t.samples.reserve(repeats);
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    t.samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  return t;
}

/// Process peak resident set size in bytes (VmHWM); 0 where unsupported.
/// A process-wide high-water mark: when cases run in ascending footprint
/// order, the reading after a case is that case's peak.
inline std::size_t peak_rss_bytes() {
#if defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#elif defined(__unix__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#else
  return 0;
#endif
}

/// One benchmark case's throughput record, as written to BENCH_*.json.
struct CaseResult {
  std::string name;          ///< e.g. protocol name or "qlec"
  std::size_t n = 0;         ///< node count
  std::size_t seeds = 0;     ///< replications per timed repetition
  std::uint64_t rounds = 0;  ///< simulated rounds per repetition (all seeds)
  std::uint64_t packets = 0; ///< generated packets per repetition
  /// Peak RSS (bytes) observed by the end of this case; the memory
  /// footprint column of BENCH_scaling.json (0 = not measured).
  std::size_t peak_rss = 0;
  Timing timing;

  double rounds_per_sec() const {
    const double m = timing.median();
    return m > 0.0 ? static_cast<double>(rounds) / m : 0.0;
  }
  double packets_per_sec() const {
    const double m = timing.median();
    return m > 0.0 ? static_cast<double>(packets) / m : 0.0;
  }
};

inline void write_case(JsonWriter& j, const CaseResult& c) {
  j.begin_object();
  j.key("name"); j.value(c.name);
  j.key("n"); j.value(c.n);
  j.key("seeds"); j.value(c.seeds);
  j.key("rounds"); j.value(static_cast<unsigned long long>(c.rounds));
  j.key("packets"); j.value(static_cast<unsigned long long>(c.packets));
  j.key("wall_median_s"); j.value(c.timing.median());
  j.key("wall_p90_s"); j.value(c.timing.p90());
  j.key("wall_min_s"); j.value(c.timing.min());
  j.key("repeats"); j.value(c.timing.samples.size());
  // The median and p90 of one sample are that sample: flag it so a reader
  // does not take a single run's noise for a distribution.
  j.key("single_sample"); j.value(c.timing.samples.size() == 1);
  j.key("peak_rss_bytes");
  j.value(static_cast<unsigned long long>(c.peak_rss));
  j.key("rounds_per_sec"); j.value(c.rounds_per_sec());
  j.key("packets_per_sec"); j.value(c.packets_per_sec());
  j.end_object();
}

/// Emits the common BENCH document frame: {"bench": name, "fast": bool,
/// "cases": [...]} plus an optional verbatim-embedded baseline document.
inline void write_bench_file(const std::string& path, const std::string& name,
                             const std::vector<CaseResult>& cases,
                             const std::string& baseline_json = {}) {
  JsonWriter j;
  j.begin_object();
  j.key("bench"); j.value(name);
  j.key("fast"); j.value(env::bench_fast());
  j.key("cases");
  j.begin_array();
  for (const CaseResult& c : cases) write_case(j, c);
  j.end_array();
  j.key("baseline");
  if (baseline_json.empty()) {
    j.null();
  } else {
    j.raw_value(baseline_json);
  }
  j.end_object();
  std::ofstream out(path);
  out << j.str() << "\n";
}

/// Reads a whole file (the QLEC_PERF_BASELINE embed); empty on failure.
inline std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

/// `field` of the case object for node count `n` in the top-level "cases"
/// array of a previously emitted BENCH document. Returns NaN when there is
/// no such case or field.
inline double baseline_field(const JsonValue& doc, std::size_t n,
                             const std::string& field) {
  const JsonValue* cases = doc.get("cases");
  if (cases == nullptr) return std::nan("");
  for (const JsonValue& c : cases->items()) {
    const JsonValue* cn = c.get("n");
    if (cn == nullptr || cn->as_double() != static_cast<double>(n)) continue;
    const JsonValue* f = c.get(field);
    return f != nullptr && f->is_number() ? f->as_double() : std::nan("");
  }
  return std::nan("");
}

}  // namespace qlec::perf
