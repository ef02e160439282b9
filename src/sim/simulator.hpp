// The round-based WSN simulator. Each round: the protocol elects heads,
// Poisson traffic arrives slot by slot, members transmit to their chosen
// relay (bounded head caches, lossy links, ACK feedback), heads service and
// aggregate their queues, and at round end each head pushes its fused
// aggregate toward the BS (directly, or over a multi-hop head chain for
// hierarchical protocols). See DESIGN.md §3 for the model rationale and §8
// for the structure-of-arrays round state the inner loop runs on.
#pragma once

#include "energy/radio_model.hpp"
#include "net/link.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "sim/env/env.hpp"
#include "sim/env/trajectory.hpp"
#include "sim/fault/fault.hpp"
#include "sim/mac/mac.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "util/rng.hpp"

namespace qlec {

/// How a cluster head fuses its cache into the uplink payload.
/// Table 2 prescribes a 50% compression *ratio* (uplink bits proportional
/// to traffic), but Eq. 6 / Theorem 1 assume the classic Heinzelman
/// *fixed-size summary* (each head uplinks exactly L bits per round); the
/// two give different k_opt behaviour, so both are supported.
enum class Aggregation {
  kRatioCompress,  ///< uplink bits = compression * collected bits (Table 2)
  kFixedSummary,   ///< uplink bits = packet_bits per head per round (Eq. 6)
};

/// Invariant-checking switches (sim/audit.hpp). Purely observational: an
/// audited run produces the identical trace.
struct AuditOptions {
  /// Run the SimAuditor checks every round and at end-of-run; the outcome
  /// lands in SimResult::audit.
  bool enabled = false;
  /// Throw AuditError on the first violation instead of accumulating them
  /// into the report.
  bool throw_on_violation = false;

  friend bool operator==(const AuditOptions&, const AuditOptions&) = default;
};

/// Trajectory-recording and early-stop switches.
struct TraceOptions {
  /// Record a per-round RoundStats trace into SimResult::trace.
  bool record = false;
  /// Stop simulating once the first node dies (lifespan experiments).
  bool stop_at_first_death = false;

  friend bool operator==(const TraceOptions&, const TraceOptions&) = default;
};

/// The "sim.exec" config block. `shards` is accepted, without effect: the
/// round core is serial (DESIGN.md §12 says why intra-round sharding was
/// removed). It still parses, echoes and enters the job key, so scenario
/// files and cached result addresses that carry it stay valid.
struct ExecOptions {
  int shards = 1;

  friend bool operator==(const ExecOptions&, const ExecOptions&) = default;
};

struct SimConfig {
  int rounds = 20;            ///< R (paper §5.1 uses 20)
  int slots_per_round = 20;   ///< time resolution within a round
  /// Mean packet inter-arrival time per node, in slots (the paper's
  /// lambda; smaller = more congested). <= 0 disables traffic.
  double mean_interarrival = 4.0;
  double packet_bits = 4000.0;
  std::size_t queue_capacity = 32;  ///< head cache size, packets
  int service_per_slot = 8;         ///< packets a head aggregates per slot
  double compression = 0.5;         ///< Table 2: 50% fusion ratio
  Aggregation aggregation = Aggregation::kRatioCompress;
  double death_line = 0.0;          ///< node dies at residual <= this
  /// Extra transmission attempts after a failed (un-ACKed) send. Each retry
  /// re-consults the protocol, matching the b_i -> b_i self-transition of
  /// the QLEC MDP.
  int max_retries = 3;
  RadioParams radio;
  LinkModel link;
  /// Node motion applied at the start of every round (§3.1 motivates the
  /// rotation by mobility; default static matches §5.1).
  MobilityConfig mobility;
  /// Energy harvested back per node per round, joules (harvesting-aware
  /// scenarios a la HyDRO). Recharge caps at the initial capacity.
  double harvest_per_round = 0.0;
  /// Idle-listening drain per alive node per slot, joules (radio duty
  /// cycling; 0 = perfect sleep scheduling, the paper's implicit model).
  double idle_listen_j_per_slot = 0.0;
  AuditOptions audit;
  TraceOptions trace;
  /// Fault injection (sim/fault). Disabled by default; a disabled config
  /// leaves the simulation — and every golden-trace digest — bit-identical.
  FaultConfig fault;
  /// Telemetry (src/obs): structured events, metric counters, and phase
  /// timers. Disabled by default (no Telemetry object is constructed at
  /// all); even enabled it is strictly observational — no extra Rng draws —
  /// so traces and golden digests stay bit-identical either way. See
  /// OBSERVABILITY.md.
  obs::TelemetryOptions telemetry;
  /// Contention-aware MAC/PHY sub-phase (sim/mac, DESIGN.md §14). Disabled
  /// by default: the engine is never constructed, no Rng draw happens, and
  /// every golden-trace digest is bit-identical. Enabled, each slot's
  /// transmissions contend (slotted CSMA, collisions, capture, backoff)
  /// with retransmit + duty-cycle energy in EnergyUse::kMac; max_retries
  /// above is superseded by mac.max_retries on the MAC path.
  MacConfig mac;
  /// Terrain-aware propagation environment (sim/env, DESIGN.md §16).
  /// Disabled by default: no Environment is constructed, no Rng draw
  /// happens, and every golden-trace digest is bit-identical. Enabled,
  /// obstructed links attenuate or sever (one Bernoulli draw per attempt
  /// either way), underwater links scale the amp-energy cost, and the
  /// depth-aware harvester credits EnergyUse::kHarvest per round.
  EnvConfig env;
  /// Mobile base-station / data-mule trajectory (sim/env/trajectory,
  /// DESIGN.md §16), advanced at round boundaries on the main thread.
  /// kind == none (the default) leaves the BS static and every digest
  /// bit-identical. Serialized as the top-level "bs.trajectory" block.
  BsTrajectoryConfig bs_trajectory;
  /// Accepted, without effect (see ExecOptions).
  ExecOptions exec;

  friend bool operator==(const SimConfig&, const SimConfig&) = default;
};

/// Runs the full simulation, mutating `net` (battery drain, head flags).
SimResult run_simulation(Network& net, ClusteringProtocol& protocol,
                         const SimConfig& cfg, Rng& rng);

}  // namespace qlec
