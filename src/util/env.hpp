// Typed accessors for the QLEC_* environment knobs. Every env var the
// benches, tests, and perf harness consult is declared here, so the full
// set of runtime switches is greppable in one place:
//
//   QLEC_BENCH_SEEDS=<n>     replications per bench point (default 5)
//   QLEC_BENCH_FAST=1        shrink bench runs for smoke testing
//   QLEC_REGEN_GOLDEN=1      rewrite tests/golden/ digests instead of
//                            comparing (golden-trace harness)
//   QLEC_RUN_JOBS=<n>        default qlec_run --jobs width (0/unset =
//                            serial; --jobs/--serial override)
//   QLEC_SERVE_CACHE=<dir>   default ResultStore directory for qlec_serve
//                            and qlec_run --serve-cache (unset = no disk
//                            cache)
//   QLEC_SERVE_WORKERS=<n>   default scheduler width for qlec_serve
//                            (0/unset = hardware concurrency; over 256
//                            is a bad value)
//   QLEC_SIMD=<backend>      force a qlec::simd kernel backend
//                            (scalar|avx2|auto); parsed by
//                            util/simd.cpp, falls back to the best
//                            available backend when unavailable or
//                            unrecognized
//
// Telemetry has no env knob: its one home is the config schema's
// sim.telemetry.* (a scenario file, or qlec_run --set).
#pragma once

#include <cstdlib>
#include <string>

namespace qlec::env {

/// True when `name` is set to anything but "" or "0" (the conventional
/// QLEC_FOO=1 switch; QLEC_FOO=0 is an explicit off).
inline bool flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// Integer knob: parses `name` as base-10; returns `fallback` when unset,
/// empty, unparsable, or non-positive (all knobs here are counts).
inline long positive_int(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  return (end != v && n > 0) ? n : fallback;
}

/// String knob: returns `fallback` when unset.
inline std::string str(const char* name, const std::string& fallback = {}) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

// ---- The knobs themselves ----

/// QLEC_BENCH_FAST: shrink bench/perf runs for smoke testing.
inline bool bench_fast() { return flag("QLEC_BENCH_FAST"); }

/// QLEC_BENCH_SEEDS: replications per bench point (fast mode halves the
/// default instead when the var is unset).
inline std::size_t bench_seeds(std::size_t def = 5) {
  const long n = positive_int("QLEC_BENCH_SEEDS", 0);
  if (n > 0) return static_cast<std::size_t>(n);
  return bench_fast() ? 2 : def;
}

/// QLEC_REGEN_GOLDEN: rewrite the committed golden-trace digests.
inline bool regen_golden() { return flag("QLEC_REGEN_GOLDEN"); }

/// QLEC_RUN_JOBS: default qlec_run --jobs width, cells at once or one
/// cell's seeds (0 = serial, the safe default; explicit --jobs/--serial
/// flags win).
inline std::size_t run_jobs() {
  return static_cast<std::size_t>(positive_int("QLEC_RUN_JOBS", 0));
}

/// QLEC_SERVE_CACHE: default ResultStore directory for qlec_serve and
/// qlec_run --serve-cache ("" = no disk cache; the flags win).
inline std::string serve_cache() { return str("QLEC_SERVE_CACHE"); }

/// QLEC_SERVE_WORKERS: default scheduler width for qlec_serve (0 =
/// hardware concurrency; --workers wins).
inline std::size_t serve_workers() {
  return static_cast<std::size_t>(positive_int("QLEC_SERVE_WORKERS", 0));
}

}  // namespace qlec::env
