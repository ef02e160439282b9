// Deterministic-replay golden-trace harness.
//
// A fixed small scenario is run for every protocol in the registry; the
// per-round RoundStats trace is hashed with trace_digest() and compared
// against the digests committed under tests/golden/ (one file per
// protocol, one hex digest per seed). Any change to simulator semantics,
// protocol behaviour, or Rng stream consumption shows up as a digest
// mismatch here before it can silently skew Fig. 3/4 style results.
//
// When the simulation model changes INTENTIONALLY, regenerate with
//   QLEC_REGEN_GOLDEN=1 ctest -R GoldenTraces --output-on-failure
// and commit the rewritten tests/golden/ files with the change.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "util/env.hpp"

namespace qlec {
namespace {

#ifndef QLEC_GOLDEN_DIR
#error "QLEC_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

/// The frozen replay scenario. Do not tweak casually: every digest under
/// tests/golden/ is a function of these numbers.
ExperimentConfig golden_config() {
  ExperimentConfig cfg;
  cfg.scenario.n = 40;
  cfg.sim.rounds = 10;
  cfg.sim.slots_per_round = 10;
  cfg.sim.trace.record = true;
  cfg.seeds = 2;
  cfg.base_seed = 42;
  cfg.protocol.qlec.total_rounds = 10;
  return cfg;
}

std::string golden_path(const std::string& protocol) {
  return std::string(QLEC_GOLDEN_DIR) + "/" + protocol + ".digest";
}

std::vector<std::string> digests_for(
    const std::string& protocol,
    const ExecPolicy& exec = ExecPolicy::serial()) {
  const auto results = run_replications(protocol, golden_config(), exec);
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const SimResult& r : results) out.push_back(trace_digest_hex(r.trace));
  return out;
}

std::vector<std::string> read_golden(const std::string& protocol) {
  std::ifstream in(golden_path(protocol));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

void write_golden(const std::string& protocol,
                  const std::vector<std::string>& digests) {
  std::ofstream out(golden_path(protocol));
  for (const std::string& d : digests) out << d << "\n";
}

TEST(GoldenTraces, DigestIsStableAndFieldSensitive) {
  std::vector<RoundStats> trace{{0, 40, 5, 199.5, 100, 90},
                                {1, 39, 5, 180.25, 210, 195}};
  EXPECT_EQ(trace_digest(trace), trace_digest(trace));
  EXPECT_EQ(trace_digest_hex(trace).size(), 16u);

  std::vector<RoundStats> tweaked = trace;
  tweaked[1].delivered += 1;
  EXPECT_NE(trace_digest(trace), trace_digest(tweaked));
  tweaked = trace;
  tweaked[0].total_residual += 1e-9;
  EXPECT_NE(trace_digest(trace), trace_digest(tweaked));

  // Empty trace hashes to the FNV-1a offset basis.
  EXPECT_EQ(trace_digest({}), 0xcbf29ce484222325ULL);
}

TEST(GoldenTraces, SameSeedRerunsAreBitIdentical) {
  for (const std::string& name : protocol_names())
    EXPECT_EQ(digests_for(name), digests_for(name)) << name;
}

TEST(GoldenTraces, SerialMatchesThreadPoolFanout) {
  for (const std::string& name : protocol_names())
    EXPECT_EQ(digests_for(name), digests_for(name, ExecPolicy::pool(3)))
        << name;
}

TEST(GoldenTraces, MatchesCommittedDigests) {
  const bool regen = env::regen_golden();
  for (const std::string& name : protocol_names()) {
    const std::vector<std::string> now = digests_for(name);
    if (regen) {
      write_golden(name, now);
      continue;
    }
    const std::vector<std::string> golden = read_golden(name);
    ASSERT_FALSE(golden.empty())
        << name << ": missing " << golden_path(name)
        << " — run with QLEC_REGEN_GOLDEN=1 to (re)generate";
    EXPECT_EQ(now, golden)
        << name << ": simulator trace diverged from the committed golden "
        << "digest. If the model change is intentional, regenerate with "
        << "QLEC_REGEN_GOLDEN=1 and commit tests/golden/.";
  }
}

TEST(GoldenTraces, AuditedRunProducesIdenticalTrace) {
  // The auditor must be strictly observational: enabling it cannot change
  // the trajectory (it shares no Rng draws with the simulation).
  ExperimentConfig cfg = golden_config();
  for (const std::string& name : {std::string("qlec"), std::string("fcm"),
                                  std::string("qelar")}) {
    const auto plain = run_replications(name, cfg);
    ExperimentConfig audited_cfg = cfg;
    audited_cfg.sim.audit.enabled = true;
    const auto audited = run_replications(name, audited_cfg);
    ASSERT_EQ(plain.size(), audited.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(trace_digest(plain[i].trace),
                trace_digest(audited[i].trace))
          << name << " seed " << i;
      EXPECT_TRUE(audited[i].audit.ok()) << audited[i].audit.summary();
    }
  }
}

}  // namespace
}  // namespace qlec
