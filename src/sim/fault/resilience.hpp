// Resilience metrics for faulted simulation runs: per-round delivery under
// faults, packet-loss attribution per fault class, and the re-clustering
// recovery time (rounds from a service disruption back to healthy
// delivery). Populated by the simulator only when FaultConfig::enabled is
// set, so fault-free SimResults carry an empty, inert ResilienceStats.
#pragma once

#include <cstdint>
#include <vector>

namespace qlec {

/// One round of delivery bookkeeping under faults. `generated`/`delivered`
/// are this round's deltas (not cumulative), so delivered can exceed
/// generated in a round that flushes earlier backlog.
struct RoundResilience {
  int round = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  /// Service-disrupting fault events applied at this round's start.
  std::uint32_t disruptions = 0;
  std::uint8_t bs_down = 0;   ///< BS outage active this round
  std::uint8_t degraded = 0;  ///< link-degradation episode active
  std::uint32_t nodes_down = 0;  ///< fault-down node count at round start

  /// This round's delivery ratio; 1 when nothing was generated (an idle
  /// round is not a delivery failure).
  double pdr() const noexcept {
    if (generated == 0) return 1.0;
    return static_cast<double>(delivered) / static_cast<double>(generated);
  }
};

/// Mean rounds from each disruption (a round with fault events) until
/// per-round PDR first returns to `threshold` x the pre-disruption baseline
/// (the running mean of healthy-round PDR). Disruptions the run never
/// recovers from contribute the remaining horizon — a lower bound, same
/// convention as FND. Returns -1 when no disruption occurred.
double mean_recovery_rounds(const std::vector<RoundResilience>& rows,
                            double threshold = 0.9);

/// Fault-and-recovery outcome of one simulation run.
struct ResilienceStats {
  bool enabled = false;  ///< true when the run had fault injection on

  // Applied-fault counts (from the injector).
  std::uint64_t crashes = 0;
  std::uint64_t stuns = 0;
  std::uint64_t blackouts = 0;
  std::uint64_t fades = 0;
  std::uint64_t bs_outage_rounds = 0;
  std::uint64_t degraded_rounds = 0;
  /// Joules removed by battery-capacity fade (ledger EnergyUse::kFault).
  double energy_faded_j = 0.0;

  // Packet-loss attribution per fault class. These refine (not replace)
  // the classic lost_link/lost_queue/lost_dead counters: each is the
  // subset of a classic loss whose final failed attempt was fault-caused.
  std::uint64_t lost_to_down_target = 0;  ///< last attempt hit a fault-down relay
  std::uint64_t lost_to_bs_outage = 0;    ///< last attempt was an outage-suppressed BS uplink
  /// Every other link loss while a degradation episode is active: channel
  /// failures, MAC collisions, and receivers down for a non-fault reason
  /// (a dead battery). Hop-budget (routing-cycle) losses are not refined.
  std::uint64_t lost_during_degradation = 0;
  std::uint64_t lost_at_down_node = 0;    ///< buffered packets stranded when their holder went down

  /// Member-rounds spent with no operational cluster head to send to
  /// (cluster-mode rounds whose election produced an empty head set).
  std::uint64_t orphaned_member_rounds = 0;

  /// One row per completed round (faulted runs only).
  std::vector<RoundResilience> per_round;
  /// See mean_recovery_rounds(); -1 when no disruption occurred.
  double recovery_rounds = -1.0;
};

}  // namespace qlec
