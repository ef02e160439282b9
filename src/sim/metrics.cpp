#include "sim/metrics.hpp"

#include <cstdio>
#include <cstring>

namespace qlec {

std::uint64_t trace_digest(const std::vector<RoundStats>& trace) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  };
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  for (const RoundStats& r : trace) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.round)));
    mix(static_cast<std::uint64_t>(r.alive));
    mix(static_cast<std::uint64_t>(r.heads));
    std::uint64_t bits;
    std::memcpy(&bits, &r.total_residual, sizeof bits);
    mix(bits);
    mix(r.generated);
    mix(r.delivered);
  }
  return h;
}

std::string trace_digest_hex(const std::vector<RoundStats>& trace) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(trace_digest(trace)));
  return buf;
}

double SimResult::pdr() const noexcept {
  if (generated == 0) return 1.0;
  return static_cast<double>(delivered) / static_cast<double>(generated);
}

void AggregatedMetrics::add(const SimResult& r) {
  if (protocol.empty()) protocol = r.protocol;
  pdr.add(r.pdr());
  total_energy.add(r.total_energy_consumed);
  first_death.add(static_cast<double>(
      r.first_death_round >= 0 ? r.first_death_round : r.rounds_completed));
  half_death.add(static_cast<double>(
      r.half_death_round >= 0 ? r.half_death_round : r.rounds_completed));
  mean_latency.add(r.latency.mean());
  heads_per_round.add(r.heads_per_round.mean());
  delivered.add(static_cast<double>(r.delivered));
  generated.add(static_cast<double>(r.generated));
  lost_link.add(static_cast<double>(r.lost_link));
  lost_queue.add(static_cast<double>(r.lost_queue));
  lost_dead.add(static_cast<double>(r.lost_dead));
  if (r.resilience.recovery_rounds >= 0.0)
    recovery_rounds.add(r.resilience.recovery_rounds);
}

}  // namespace qlec
