// Poisson traffic generation. Section 5.2: "the packet generation time in
// the network follows the poisson distribution. lambda is the average packet
// inter-arrival time ... the smaller lambda is, the more congested the
// network is."
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace qlec {

/// Per-node Poisson process: exponential inter-arrival with mean
/// `mean_interarrival` slots. Arrivals are materialized slot by slot so the
/// simulator can interleave traffic with queue service.
class PoissonTraffic {
 public:
  /// `nodes` independent processes. `mean_interarrival <= 0` disables
  /// generation entirely.
  PoissonTraffic(std::size_t nodes, double mean_interarrival, Rng& rng);

  /// Clears `out` and refills it with the node indices that generate a
  /// packet during global slot `slot`, in node id order, then arrival time.
  /// A node can appear multiple times if several arrivals land in one slot.
  void arrivals_into(std::int64_t slot, Rng& rng,
                     std::vector<std::size_t>& out);

  double mean_interarrival() const noexcept { return mean_; }

 private:
  double mean_;
  std::vector<double> next_arrival_;  // continuous time of next arrival
};

}  // namespace qlec
