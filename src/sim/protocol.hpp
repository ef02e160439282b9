// The contract between the round-based simulator and a clustering/routing
// protocol. The simulator owns traffic, queues, radio-energy charging, and
// delivery bookkeeping; the protocol owns head election and relay choice.
// Header-only so protocol implementations in lower layers (src/core) can
// implement it without a link-time dependency on qlec_sim.
#pragma once

#include <string>

#include "energy/ledger.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace qlec {

/// Opaque handle of set_exec(); declared only, never defined.
class ExecContext;

namespace obs {
class Telemetry;  // obs/telemetry.hpp
}

class ClusteringProtocol {
 public:
  virtual ~ClusteringProtocol() = default;

  virtual std::string name() const = 0;

  /// Flat-routing protocols (e.g. QELAR) have no cluster heads: route() is
  /// consulted at EVERY hop, packets are store-and-forwarded through
  /// per-node relay buffers without aggregation, and there is no round-end
  /// uplink phase. Cluster-based protocols return false.
  virtual bool flat_routing() const { return false; }

  /// Elect cluster heads for `round` (set is_head flags) and prepare routing
  /// state. Control-plane energy (HELLO broadcasts, cluster announcements)
  /// is charged to node batteries here and recorded in `ledger` under
  /// EnergyUse::kControl.
  virtual void on_round_start(Network& net, int round, Rng& rng,
                              EnergyLedger& ledger) = 0;

  /// Relay target for a fresh `bits`-bit packet at node `src`: a cluster
  /// head id, or kBaseStationId for a direct uplink.
  virtual int route(const Network& net, int src, double bits, Rng& rng) = 0;

  /// Where head `head` sends its round-end aggregate: kBaseStationId for a
  /// direct uplink (LEACH/DEEC/QLEC/k-means), or another head id for
  /// hierarchical multi-hop schemes (the FCM comparator). The simulator
  /// follows the chain hop by hop until it reaches the BS.
  virtual int uplink_target(const Network& net, int head, Rng& rng) {
    (void)net; (void)head; (void)rng;
    return kBaseStationId;
  }

  /// ACK feedback for a member -> target transmission attempt.
  virtual void on_tx_result(const Network& net, int src, int target,
                            bool success) {
    (void)net; (void)src; (void)target; (void)success;
  }

  /// ACK feedback for a cluster head's aggregate uplink to the BS.
  virtual void on_uplink_result(const Network& net, int head, bool success) {
    (void)net; (void)head; (void)success;
  }

  virtual void on_round_end(Network& net, int round) {
    (void)net; (void)round;
  }

  /// Number of value/Q updates the protocol has performed so far (0 for
  /// non-learning protocols); surfaces the X of Theorem 3 in results.
  virtual std::size_t learning_updates() const { return 0; }

  /// Called once per round after election and the simulator's state
  /// refresh, before the first slot: a protocol may hoist per-round TX
  /// precomputation here (no registry protocol does; QLEC computes its y
  /// costs per route). Must be behaviorally invisible — routing decisions,
  /// energy, and traces are bit-identical whether or not anything is
  /// precomputed.
  virtual void prepare_tx(const Network& net, double packet_bits) {
    (void)net;
    (void)packet_bits;
  }

  /// No-op: the simulator never calls it, and ExecContext has no
  /// definition (the round core is serial, DESIGN.md §12). It stays
  /// declared so instrumented wrappers that forward it still build.
  virtual void set_exec(ExecContext* exec) { (void)exec; }

  /// Attaches the telemetry context for the coming run (nullptr detaches).
  /// The simulator calls this around run_simulation when
  /// SimConfig::telemetry is enabled; the pointer is only valid for that
  /// run. Strictly observational: protocols may emit events and bump
  /// counters through it but must not let it influence any decision.
  /// Overriders (e.g. protocols owning a sub-router that self-instruments)
  /// must call the base implementation.
  virtual void set_telemetry(obs::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }

 protected:
  /// The attached context, or nullptr (the common, zero-cost case).
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace qlec
