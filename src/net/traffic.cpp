#include "net/traffic.hpp"

namespace qlec {

PoissonTraffic::PoissonTraffic(std::size_t nodes, double mean_interarrival,
                               Rng& rng)
    : mean_(mean_interarrival) {
  next_arrival_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    next_arrival_.push_back(mean_ > 0.0 ? rng.exponential(mean_)
                                        : -1.0 /* never */);
  }
}

void PoissonTraffic::arrivals_into(std::int64_t slot, Rng& rng,
                                   std::vector<std::size_t>& out) {
  out.clear();
  if (mean_ <= 0.0) return;
  const double slot_end = static_cast<double>(slot) + 1.0;
  for (std::size_t i = 0; i < next_arrival_.size(); ++i) {
    while (next_arrival_[i] < slot_end) {
      out.push_back(i);
      next_arrival_[i] += rng.exponential(mean_);
    }
  }
}

}  // namespace qlec
