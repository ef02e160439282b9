#include "energy/ledger.hpp"

#include <algorithm>
#include <cstdio>

namespace qlec {

const char* energy_use_name(EnergyUse u) {
  switch (u) {
    case EnergyUse::kTransmit: return "tx";
    case EnergyUse::kReceive: return "rx";
    case EnergyUse::kAggregate: return "agg";
    case EnergyUse::kControl: return "ctl";
    case EnergyUse::kIdle: return "idle";
    case EnergyUse::kFault: return "fault";
    case EnergyUse::kMac: return "mac";
    case EnergyUse::kHarvest: return "harvest";
    case EnergyUse::kCount_: break;
  }
  return "?";
}

void EnergyLedger::charge(EnergyUse use, double joules) noexcept {
  buckets_[static_cast<int>(use)] += std::max(joules, 0.0);
}

void EnergyLedger::charge(EnergyUse use, double joules, int node) noexcept {
  joules = std::max(joules, 0.0);
  buckets_[static_cast<int>(use)] += joules;
  if (node >= 0 && static_cast<std::size_t>(node) < per_node_.size())
    per_node_[static_cast<std::size_t>(node)] += joules;
}

void EnergyLedger::enable_per_node(std::size_t n) {
  if (per_node_.size() < n) per_node_.resize(n, 0.0);
}

double EnergyLedger::node_total(int node) const noexcept {
  if (node < 0 || static_cast<std::size_t>(node) >= per_node_.size())
    return 0.0;
  return per_node_[static_cast<std::size_t>(node)];
}

double EnergyLedger::total() const noexcept {
  double t = 0.0;
  for (int i = 0; i < static_cast<int>(EnergyUse::kCount_); ++i)
    if (i != static_cast<int>(EnergyUse::kHarvest)) t += buckets_[i];
  return t;
}

double EnergyLedger::by_use(EnergyUse use) const noexcept {
  return buckets_[static_cast<int>(use)];
}

std::string EnergyLedger::summary() const {
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "tx=%.6g rx=%.6g agg=%.6g ctl=%.6g idle=%.6g fault=%.6g "
                "mac=%.6g harvest=%.6g total=%.6g J",
                by_use(EnergyUse::kTransmit), by_use(EnergyUse::kReceive),
                by_use(EnergyUse::kAggregate), by_use(EnergyUse::kControl),
                by_use(EnergyUse::kIdle), by_use(EnergyUse::kFault),
                by_use(EnergyUse::kMac), by_use(EnergyUse::kHarvest),
                total());
  return buf;
}

}  // namespace qlec
