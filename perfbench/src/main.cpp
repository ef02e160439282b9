// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <scale_100k|worlds_mac|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Run from the checkout root. Prints progress on stderr and, as the last
// line of stdout, one JSON result: the end-to-end metrics when --trace 0,
// the per-layer metrics when --trace 1. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<scale_100k|worlds_mac|serve_mix> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  return 2;
}

// Why each workload exists is recorded in perfbench/README.md.
constexpr perfbench::RoundsWorkload kScale100k{
    "perfbench/scenarios/scale_100k.json", 3, 2};
constexpr perfbench::RoundsWorkload kWorldsMac{
    "perfbench/scenarios/worlds_mac.json", 16, 16};

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args.seconds > 0.0 && args.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds (0, 600] and --trace 0|1 are required");

  perfbench::Report report;
  try {
    if (workload == "scale_100k") {
      perfbench::run_rounds(kScale100k, args, report);
    } else if (workload == "worlds_mac") {
      perfbench::run_rounds(kWorldsMac, args, report);
    } else if (workload == "serve_mix") {
      perfbench::run_serve_mix(args, report);
    } else {
      return usage(("unknown workload \"" + workload + "\"").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
