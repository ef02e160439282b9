// Whole-SimResult golden pin.
//
// trace_digest (test_golden_traces.cpp) covers only the per-round
// round/alive/heads/residual/generated/delivered rows. This harness hashes
// EVERY SimResult field — the loss counters, the resilience attribution,
// the MAC counters, per-node energy, latency, and the audit outcome — for
// each cell of a declarative grid (every registry protocol x sim.mac x
// sim.fault x sim.env) and compares the hashes against
// tests/golden/sim_result.pin, one line per cell. One cell is replayed
// again with sim.exec.shards set: the knob is accepted, without effect.
//
// When the model changes INTENTIONALLY, regenerate with
//   QLEC_REGEN_GOLDEN=1 ./build/tests/test_sim --gtest_filter='ResultPin.*'
// and commit the rewritten pin file with the change.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "util/env.hpp"

namespace qlec {
namespace {

#ifndef QLEC_GOLDEN_DIR
#error "QLEC_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

const std::string kPinPath = std::string(QLEC_GOLDEN_DIR) + "/sim_result.pin";

/// 64-bit FNV-1a over fixed-width little-endian words (doubles by bit
/// pattern), the same construction as trace_digest.
class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) u64(static_cast<unsigned char>(c));
  }
  void stats(const RunningStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.m2());
    f64(s.min());
    f64(s.max());
  }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }
  void mac(const MacCounters& c) {
    for (const std::uint64_t v :
         {c.tx_attempts, c.retransmits, c.collisions, c.capture_wins,
          c.cca_busy, c.backoff_subslots, c.subslots, c.drop_collision,
          c.drop_channel, c.drop_overflow, c.drop_target_down,
          c.drop_sender_down})
      u64(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hashes every SimResult field, in declaration order.
std::uint64_t result_hash(const SimResult& r) {
  Fnv h;
  h.str(r.protocol);
  for (const std::uint64_t v :
       {r.generated, r.delivered, r.lost_link, r.lost_queue, r.lost_dead})
    h.u64(v);
  for (int u = 0; u < static_cast<int>(EnergyUse::kCount_); ++u)
    h.f64(r.energy.by_use(static_cast<EnergyUse>(u)));
  h.doubles(r.energy.per_node());
  h.f64(r.total_energy_consumed);
  h.doubles(r.per_node_consumed);
  h.doubles(r.per_node_rate);
  for (const int v : {r.first_death_round, r.half_death_round,
                      r.last_death_round, r.rounds_completed})
    h.i64(v);
  h.stats(r.latency);
  h.stats(r.heads_per_round);
  h.u64(r.q_evaluations);
  h.u64(trace_digest(r.trace));

  h.u64(r.audit.violations.size());
  for (const AuditViolation& v : r.audit.violations) h.str(v.to_string());
  h.i64(r.audit.rounds_audited);
  h.u64(r.audit.finalized ? 1 : 0);

  const ResilienceStats& res = r.resilience;
  h.u64(res.enabled ? 1 : 0);
  for (const std::uint64_t v :
       {res.crashes, res.stuns, res.blackouts, res.fades,
        res.bs_outage_rounds, res.degraded_rounds})
    h.u64(v);
  h.f64(res.energy_faded_j);
  for (const std::uint64_t v :
       {res.lost_to_down_target, res.lost_to_bs_outage,
        res.lost_during_degradation, res.lost_at_down_node,
        res.orphaned_member_rounds})
    h.u64(v);
  h.u64(res.per_round.size());
  for (const RoundResilience& row : res.per_round) {
    h.i64(row.round);
    h.u64(row.generated);
    h.u64(row.delivered);
    h.u64(row.disruptions);
    h.u64(row.bs_down);
    h.u64(row.degraded);
    h.u64(row.nodes_down);
  }
  h.f64(res.recovery_rounds);

  h.u64(r.mac.enabled ? 1 : 0);
  h.mac(r.mac.totals);
  h.u64(r.mac.per_round.size());
  for (const MacRound& row : r.mac.per_round) {
    h.i64(row.round);
    h.mac(row.c);
  }
  return h.value();
}

/// The frozen base scenario shared by every cell: a small audited world
/// with an orbiting sink, idle listening, harvesting, and batteries small
/// enough that nodes die mid-run. Do not tweak
/// casually: every line of the pin file is a function of these numbers.
ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.scenario.n = 60;
  cfg.scenario.initial_energy = 0.25;  // low enough that batteries die
  cfg.scenario.energy_heterogeneity = 0.4;
  cfg.seeds = 1;
  cfg.base_seed = 2024;
  cfg.sim.rounds = 14;
  cfg.sim.trace.record = true;
  cfg.sim.idle_listen_j_per_slot = 2e-5;
  cfg.sim.harvest_per_round = 1e-3;
  cfg.sim.audit.enabled = true;
  cfg.sim.bs_trajectory.kind = TrajectoryKind::kOrbit;
  cfg.sim.bs_trajectory.orbit_center = {100, 100, 190};
  cfg.sim.bs_trajectory.orbit_radius = 60.0;
  cfg.sim.bs_trajectory.orbit_period = 5;
  cfg.protocol.qlec.total_rounds = cfg.sim.rounds;
  return cfg;
}

void with_mac(ExperimentConfig& cfg) {
  cfg.sim.mac.enabled = true;
  cfg.sim.mac.seed = 5;
  cfg.sim.mac.cca_range = 90.0;
  cfg.sim.mac.max_retries = 3;
  cfg.sim.mac.idle_j_per_subslot = 1e-6;
  cfg.sim.mac.duty_cycle = 0.5;
}

void with_fault(ExperimentConfig& cfg) {
  cfg.sim.fault.enabled = true;
  cfg.sim.fault.seed = 11;
  FaultHazards& hz = cfg.sim.fault.hazards;
  hz.crash_per_node = 0.01;
  hz.stun_per_node = 0.03;
  hz.fade_per_node = 0.02;
  hz.degrade_episode = 0.25;
  hz.bs_outage = 0.08;
}

void with_env(ExperimentConfig& cfg) {
  EnvConfig& env = cfg.sim.env;
  env.enabled = true;
  env.atten_per_unit = 0.015;
  env.sever_depth = 120.0;
  env.terrain = EnvTerrain{true, 0.25, 0.5};  // the ridge height-field
  env.obstacles.push_back(
      EnvObstacle{Aabb{{40, 40, 0}, {120, 120, 160}}, 0.01});
}

/// The grid's subsystem axes; a cell switches on any subset of them.
struct Axis {
  const char* name;
  void (*apply)(ExperimentConfig&);
};
constexpr Axis kAxes[] = {{"mac", with_mac},
                          {"fault", with_fault},
                          {"env", with_env}};
constexpr unsigned kAxisCount = sizeof(kAxes) / sizeof(kAxes[0]);

struct Cell {
  std::string key;  ///< "<protocol> mac=<0|1> fault=<0|1> env=<0|1>"
  std::string protocol;
  ExperimentConfig cfg;
};

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (const std::string& name : protocol_names()) {
    for (unsigned mask = 0; mask < (1u << kAxisCount); ++mask) {
      Cell c{name, name, base_config()};
      for (unsigned a = 0; a < kAxisCount; ++a) {
        const bool on = (mask >> a) & 1u;
        c.key += std::string(" ") + kAxes[a].name + "=" + (on ? "1" : "0");
        if (on) kAxes[a].apply(c.cfg);
      }
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string cell_hash(const Cell& cell) {
  const std::vector<SimResult> runs = run_replications(cell.protocol, cell.cfg);
  EXPECT_EQ(runs.size(), 1u) << cell.key;
  return runs.empty() ? std::string() : hex(result_hash(runs.front()));
}

/// Pin file: one "<cell key> <hash>" line per cell.
std::map<std::string, std::string> read_pin() {
  std::map<std::string, std::string> pin;
  std::ifstream in(kPinPath);
  for (std::string line; std::getline(in, line);) {
    const std::size_t sp = line.rfind(' ');
    if (sp != std::string::npos)
      pin[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return pin;
}

TEST(ResultPin, HashCoversEveryResultField) {
  SimResult r;
  const std::uint64_t base = result_hash(r);
  const auto moved = [&](auto&& tweak) {
    SimResult t;
    tweak(t);
    return result_hash(t) != base;
  };
  EXPECT_TRUE(moved([](SimResult& t) { t.lost_dead = 1; }));
  EXPECT_TRUE(moved([](SimResult& t) { t.latency.add(3.0); }));
  EXPECT_TRUE(moved([](SimResult& t) { t.per_node_rate.push_back(0.0); }));
  EXPECT_TRUE(moved(
      [](SimResult& t) { t.resilience.lost_during_degradation = 1; }));
  EXPECT_TRUE(moved([](SimResult& t) { t.resilience.recovery_rounds = 2; }));
  EXPECT_TRUE(moved([](SimResult& t) { t.mac.totals.drop_sender_down = 1; }));
  EXPECT_TRUE(moved([](SimResult& t) { t.audit.finalized = true; }));
  EXPECT_TRUE(moved([](SimResult& t) {
    t.energy.charge(EnergyUse::kHarvest, 1.0);
  }));
}

TEST(ResultPin, EveryCellMatchesCommittedPin) {
  const std::vector<Cell> cells = grid();
  ASSERT_EQ(cells.size(), protocol_names().size() << kAxisCount);
  if (env::regen_golden()) {
    std::ofstream out(kPinPath);
    for (const Cell& c : cells) out << c.key << " " << cell_hash(c) << "\n";
    return;
  }
  const std::map<std::string, std::string> pin = read_pin();
  ASSERT_EQ(pin.size(), cells.size())
      << "missing or stale " << kPinPath
      << " — run with QLEC_REGEN_GOLDEN=1 to (re)generate";
  for (const Cell& c : cells) {
    const auto it = pin.find(c.key);
    ASSERT_NE(it, pin.end()) << c.key << ": no pin line";
    EXPECT_EQ(cell_hash(c), it->second)
        << c.key
        << ": a SimResult field diverged from the committed pin. If the "
        << "model change is intentional, regenerate with "
        << "QLEC_REGEN_GOLDEN=1 and commit tests/golden/sim_result.pin.";
  }
}

TEST(ResultPin, ShardsKnobIsAcceptedWithoutEffect) {
  // QLEC's fullest cell (MAC, faults and env all on), run at shards 4,
  // must still equal its pin line.
  const std::string key = "qlec mac=1 fault=1 env=1";
  const std::vector<Cell> cells = grid();
  const auto cell = std::find_if(cells.begin(), cells.end(),
                                 [&](const Cell& c) { return c.key == key; });
  ASSERT_NE(cell, cells.end()) << key << ": not in the grid";
  const std::map<std::string, std::string> pin = read_pin();
  ASSERT_EQ(pin.count(key), 1u) << key << ": no pin line";
  Cell sharded = *cell;
  sharded.cfg.sim.exec.shards = 4;
  EXPECT_EQ(cell_hash(sharded), pin.at(key));
}

}  // namespace
}  // namespace qlec
