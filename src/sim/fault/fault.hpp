// Fault-injection layer: deterministic failure models for the round-based
// simulator (DESIGN.md §9).
//
// Two sources of faults compose:
//   * a FaultPlan — scheduled events pinned to specific rounds (crash node
//     7 at round 12, black out this Aabb for 5 rounds, ...), and
//   * FaultHazards — per-round stochastic failure rates sampled from the
//     injector's OWN xoshiro stream, never the simulation Rng.
//
// Determinism contract: with FaultConfig::enabled == false the simulator
// constructs no injector, draws nothing extra from any stream, and every
// committed golden-trace digest stays bit-identical. With faults enabled,
// a fixed (simulation seed, FaultConfig) pair reproduces the identical
// fault sequence and therefore the identical SimResult, resilience metrics
// included: the fault stream is seeded from one draw off the simulation
// Rng XORed with FaultConfig::seed.
//
// All up/down transitions happen at round boundaries (FaultInjector::
// begin_round, before the auditor snapshot and head election); the
// slot-level effects — link-quality degradation and BS outages — are
// exposed as per-attempt queries (link_factor(), bs_up()) that stay
// constant within a round.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/aabb.hpp"
#include "util/rng.hpp"

namespace qlec {

class Network;

namespace obs {
class Telemetry;  // obs/telemetry.hpp
}

/// Config-file tokens: the enum tables in config/schema.cpp.
enum class FaultKind : int {
  kCrash,       ///< permanent node failure (node stays down forever)
  kStun,        ///< transient sleep window: down for `duration` rounds
  kBlackout,    ///< regional outage: crash or stun everything inside `region`
  kLinkDegrade, ///< scale every link success probability by `severity`
  kBsOutage,    ///< all BS uplinks fail for `duration` rounds
  kBatteryFade, ///< remove `severity` fraction of a node's residual energy
};

/// One scheduled fault. Fields beyond `kind`/`round` are interpreted per
/// kind; irrelevant ones are ignored.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  int round = 0;          ///< round at whose start the event fires
  int node = -1;          ///< target (kCrash/kStun/kBatteryFade); -1 = none
  int duration = 1;       ///< rounds (kStun, kLinkDegrade, kBsOutage,
                          ///< transient kBlackout)
  double severity = 0.5;  ///< kLinkDegrade: success-probability multiplier
                          ///< in [0,1]; kBatteryFade: fraction of residual
                          ///< removed in [0,1]
  bool permanent = false; ///< kBlackout: crash (true) vs stun (false)
  Aabb region{};          ///< kBlackout: the affected volume

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A deterministic schedule of fault events. Events may be listed in any
/// order; same-round events apply in list order.
struct FaultPlan {
  std::vector<FaultEvent> events;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Per-round stochastic failure rates, all sampled from the fault stream.
/// Node-scoped hazards are drawn per operational node in id order, so a
/// fixed stream seed yields a fixed fault sequence.
struct FaultHazards {
  double crash_per_node = 0.0;   ///< P(permanent crash) per node per round
  double stun_per_node = 0.0;    ///< P(sleep window starts) per node/round
  int stun_rounds = 2;           ///< length of a sampled sleep window
  double fade_per_node = 0.0;    ///< P(capacity-fade event) per node/round
  double fade_fraction = 0.1;    ///< residual fraction removed per event
  double degrade_episode = 0.0;  ///< P(degradation episode starts) per round
  int degrade_rounds = 3;        ///< episode length
  double degrade_factor = 0.5;   ///< success multiplier during an episode
  double bs_outage = 0.0;        ///< P(BS outage starts) per round
  int bs_outage_rounds = 1;      ///< outage length

  bool any() const noexcept {
    return crash_per_node > 0.0 || stun_per_node > 0.0 ||
           fade_per_node > 0.0 || degrade_episode > 0.0 || bs_outage > 0.0;
  }

  friend bool operator==(const FaultHazards&, const FaultHazards&) = default;
};

struct FaultConfig {
  /// Master switch. False = the simulator builds no injector at all (the
  /// golden-trace guarantee); plan and hazards are ignored.
  bool enabled = false;
  /// XORed into the fault-stream seed so distinct fault scenarios decouple
  /// even at the same simulation seed.
  std::uint64_t seed = 0;
  FaultPlan plan;
  FaultHazards hazards;

  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

/// Why a node is currently down (kNone while operational).
enum class DownCause : std::uint8_t { kNone = 0, kCrashed, kStunned };

/// Applies a FaultConfig to the network at round boundaries and answers the
/// simulator's per-attempt fault queries. Owns the fault Rng stream;
/// mutates only SensorNode::up flags and its own state — battery fades are
/// handed back to the simulator so they flow through the EnergyLedger
/// (EnergyUse::kFault) and the audit books stay reconciled.
class FaultInjector {
 public:
  /// `stream_seed` folds the simulation run's identity into the fault
  /// stream (the simulator passes one Rng draw XOR cfg.seed).
  FaultInjector(const FaultConfig& cfg, std::size_t n, double death_line,
                std::uint64_t stream_seed);

  /// A battery-fade drain the simulator must charge to the ledger.
  struct Fade {
    int node = -1;
    double joules = 0.0;
  };

  /// Round-boundary fault processing, in order: wake expired stuns, expire
  /// global episodes, fire scheduled events for `round`, sample hazards.
  /// Appends fade drains to `fades` and newly crashed node ids to
  /// `crashed` (both cleared first).
  void begin_round(Network& net, int round, std::vector<Fade>& fades,
                   std::vector<int>& crashed);

  /// Link-success multiplier for this round (1.0 outside episodes).
  double link_factor() const noexcept { return degrade_until_ > round_
                                                   ? degrade_factor_
                                                   : 1.0; }
  /// False while a BS outage window is active.
  bool bs_up() const noexcept { return bs_down_until_ <= round_; }

  bool down(int id) const noexcept {
    return cause_[static_cast<std::size_t>(id)] != DownCause::kNone;
  }
  DownCause cause(int id) const noexcept {
    return cause_[static_cast<std::size_t>(id)];
  }

  /// Service-disrupting events applied at the last begin_round (crashes +
  /// stuns + blackout regions + episode starts) — feeds the per-round
  /// resilience rows the recovery metric is computed from.
  std::uint32_t disruptions_this_round() const noexcept {
    return disruptions_round_;
  }

  // Cumulative applied-fault counters (for ResilienceStats).
  std::uint64_t crashes() const noexcept { return crashes_; }
  std::uint64_t stuns() const noexcept { return stuns_; }
  std::uint64_t blackouts() const noexcept { return blackouts_; }
  std::uint64_t fades() const noexcept { return fades_; }
  std::uint64_t bs_outage_rounds() const noexcept {
    return bs_outage_rounds_;
  }
  std::uint64_t degraded_rounds() const noexcept { return degraded_rounds_; }

  /// Attaches the telemetry context for the current run (nullptr detaches;
  /// the simulator manages the lifetime). Strictly observational: neither
  /// the fault Rng stream nor any up/down decision is affected — applied
  /// transitions are merely mirrored as {"type":"fault"} events and a
  /// "fault.transitions" counter.
  void set_telemetry(obs::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

 private:
  /// Emits one {"type":"fault"} transition event (no-op when detached).
  void note(const char* kind, int node, int until_round);
  void crash(Network& net, int id, std::vector<int>& crashed);
  void stun(Network& net, int id, int until_round);
  void fade(Network& net, int id, double fraction, std::vector<Fade>& fades);
  void apply_event(Network& net, const FaultEvent& e, int round,
                   std::vector<Fade>& fades, std::vector<int>& crashed);
  void sample_hazards(Network& net, int round, std::vector<Fade>& fades,
                      std::vector<int>& crashed);

  FaultHazards hazards_;
  std::vector<FaultEvent> schedule_;  ///< stable-sorted by round
  std::size_t next_event_ = 0;
  double death_line_ = 0.0;
  Rng rng_;
  obs::Telemetry* telemetry_ = nullptr;

  int round_ = -1;
  std::vector<DownCause> cause_;
  std::vector<int> stun_until_;  ///< round at which a stun expires
  int degrade_until_ = -1;
  double degrade_factor_ = 1.0;
  int bs_down_until_ = -1;

  std::uint32_t disruptions_round_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t stuns_ = 0;
  std::uint64_t blackouts_ = 0;
  std::uint64_t fades_ = 0;
  std::uint64_t bs_outage_rounds_ = 0;
  std::uint64_t degraded_rounds_ = 0;
};

}  // namespace qlec
