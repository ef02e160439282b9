// Result records produced by the simulator and their cross-seed aggregates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "energy/ledger.hpp"
#include "sim/audit.hpp"
#include "sim/fault/resilience.hpp"
#include "sim/mac/mac.hpp"
#include "util/stats.hpp"

namespace qlec {

/// Per-round snapshot for time-series analysis (alive-nodes curves,
/// residual-energy decay, head-count stability).
struct RoundStats {
  int round = 0;
  std::size_t alive = 0;
  std::size_t heads = 0;
  double total_residual = 0.0;
  std::uint64_t generated = 0;   ///< cumulative
  std::uint64_t delivered = 0;   ///< cumulative
};

/// Outcome of a single simulation run.
struct SimResult {
  std::string protocol;

  // Packet accounting.
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost_link = 0;   ///< exceeded retries on a lossy link
  std::uint64_t lost_queue = 0;  ///< overflowed a cluster-head cache
  std::uint64_t lost_dead = 0;   ///< stranded at a node that died
  /// Packet delivery rate in [0,1]; 1 when nothing was generated.
  double pdr() const noexcept;

  // Energy.
  EnergyLedger energy;
  /// Sum of battery draw across nodes (== ledger total up to clamping at
  /// empty batteries).
  double total_energy_consumed = 0.0;
  std::vector<double> per_node_consumed;  ///< joules, indexed by node id
  std::vector<double> per_node_rate;      ///< consumed / initial

  // Lifespan (rounds, 0-based; -1 = did not happen within the run).
  int first_death_round = -1;  ///< FND — the paper's lifespan metric
  int half_death_round = -1;   ///< HND
  int last_death_round = -1;   ///< LND (all nodes below the death line)
  int rounds_completed = 0;

  // Latency of delivered packets, in slots.
  RunningStats latency;

  // Cluster structure.
  RunningStats heads_per_round;

  /// Total Q evaluations when the protocol is QLEC (0 otherwise).
  std::size_t q_evaluations = 0;

  /// One entry per completed round when TraceOptions::record is set;
  /// empty otherwise.
  std::vector<RoundStats> trace;

  /// Invariant-check outcome when SimConfig::audit is set (rounds_audited
  /// == 0 otherwise). See sim/audit.hpp for what is verified.
  AuditReport audit;

  /// Fault counts, per-class loss attribution, per-round delivery rows, and
  /// recovery time when SimConfig::fault is enabled (inert otherwise). See
  /// sim/fault/resilience.hpp.
  ResilienceStats resilience;

  /// MAC-layer contention counters (collisions, retransmits, backoff,
  /// capture wins, per-cause drops) with per-round rows when
  /// SimConfig::mac is enabled (inert otherwise). See sim/mac/mac.hpp.
  MacStats mac;
};

/// Canonical 64-bit FNV-1a digest of a RoundStats trace. Hashes every field
/// (doubles by bit pattern) in little-endian byte order, so the digest is
/// stable across runs, thread counts, and platforms with IEEE-754 doubles —
/// the foundation of the golden-trace replay harness in tests/golden/.
std::uint64_t trace_digest(const std::vector<RoundStats>& trace) noexcept;

/// `trace_digest` formatted as 16 lowercase hex digits (the on-disk golden
/// format).
std::string trace_digest_hex(const std::vector<RoundStats>& trace);

/// Mean/CI aggregation of SimResults across seeds.
struct AggregatedMetrics {
  std::string protocol;
  RunningStats pdr;
  RunningStats total_energy;
  RunningStats first_death;   ///< runs where FND never happened contribute
                              ///< rounds_completed (a lower bound)
  RunningStats half_death;
  RunningStats mean_latency;
  RunningStats heads_per_round;
  RunningStats delivered;
  RunningStats generated;
  // Loss breakdown (same classification as the SimResult counters).
  RunningStats lost_link;
  RunningStats lost_queue;
  RunningStats lost_dead;
  /// Recovery time across faulted runs that saw a disruption (runs with
  /// recovery_rounds < 0 contribute nothing).
  RunningStats recovery_rounds;

  void add(const SimResult& r);
};

}  // namespace qlec
