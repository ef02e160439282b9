// Network-wide energy accounting, broken down by activity so benches can
// report where the joules went (Fig. 3(b) and the ablations). Optionally
// also tracks a per-node total so the SimAuditor can reconcile every
// node's battery delta against its ledger entries.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qlec {

enum class EnergyUse : int {
  kTransmit = 0,
  kReceive,
  kAggregate,
  kControl,  // HELLO broadcasts / cluster management overhead
  kIdle,     // idle-listening drain while awake with nothing to do
  kFault,    // battery-capacity fade injected by the fault layer (sim/fault)
  kMac,      // MAC-layer overhead when sim.mac is enabled: retransmissions
             // plus duty-cycle listening on the contention timeline
  kHarvest,  // CREDIT bucket: joules restored by harvesting (the uniform
             // harvest_per_round top-up and the sim/env depth-dependent
             // harvester). Excluded from total() — total() is the drain
             // side of the books; the SimAuditor reconciles this credit
             // side against Battery::recharge separately.
  kCount_,
};

const char* energy_use_name(EnergyUse u);

class EnergyLedger {
 public:
  void charge(EnergyUse use, double joules) noexcept;
  /// Node-attributed charge: also accumulates into the per-node total when
  /// per-node tracking is enabled (and `node` is a valid id). All simulator
  /// and protocol charge sites attribute, so per-node totals are exhaustive.
  void charge(EnergyUse use, double joules, int node) noexcept;

  /// Allocates the per-node accumulator for ids [0, n). Off by default —
  /// the SimAuditor turns it on for audited runs.
  void enable_per_node(std::size_t n);
  bool per_node_enabled() const noexcept { return !per_node_.empty(); }
  /// Joules attributed to `node` (0 when tracking is disabled or the id is
  /// out of range).
  double node_total(int node) const noexcept;
  const std::vector<double>& per_node() const noexcept { return per_node_; }

  /// Sum of every DRAIN bucket (kHarvest, the credit bucket, is excluded —
  /// round-conservation audits compare this against battery drain).
  double total() const noexcept;
  double by_use(EnergyUse use) const noexcept;

  /// "tx=… rx=… agg=… ctl=… total=…" one-liner for logs and benches.
  std::string summary() const;

 private:
  double buckets_[static_cast<int>(EnergyUse::kCount_)] = {};
  std::vector<double> per_node_;
};

}  // namespace qlec
