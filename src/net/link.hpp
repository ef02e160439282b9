// Link layer: distance-dependent delivery probability plus the ACK-driven
// success-rate estimator the paper uses for P^{a_j}_{b_i h_j} ("the link
// probability can be estimated by the ratio between the successfully
// transmitted packets and all the packets sent ... recently", following
// HyDRO/QELAR).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace qlec {

/// Ground-truth channel model: p(d) = max(p_floor, exp(-(d/d_ref)^2)).
/// A Gaussian-in-distance success curve is a standard smooth stand-in for
/// log-normal shadowing link quality; d_ref tunes the harshness (underwater
/// scenarios use a smaller d_ref).
struct LinkModel {
  double d_ref = 220.0;  ///< distance at which success drops to 1/e
  double p_floor = 0.02; ///< residual success probability at any range
  /// BS uplinks land on the sink's high-gain receiver; their probability is
  /// boosted as p' = 1 - (1-p)*bs_reliability_factor.
  double bs_reliability_factor = 0.25;

  double success_probability(double d) const noexcept;
  double bs_success_probability(double d) const noexcept;
  /// One Bernoulli transmission attempt over distance d.
  bool attempt(double d, Rng& rng) const noexcept;

  friend bool operator==(const LinkModel&, const LinkModel&) = default;
};

/// Sliding-window per-link success estimator. Keyed by (from, to) node ids;
/// starts from an optimistic prior so unexplored links get tried (classic
/// optimism-in-the-face-of-uncertainty).
///
/// Storage is a flat per-source array of small contiguous entry lists
/// rather than one global hash map: estimate() sits on the innermost
/// Q-evaluation loop (one call per candidate head per packet), and a source
/// only ever observes a handful of distinct targets, so a linear scan of a
/// tiny cache-resident vector beats a hash lookup by a wide margin. Sources
/// with a negative id (never produced by the simulator) fall back to a side
/// map so the estimator stays total over all int pairs.
class LinkEstimator {
 public:
  /// `window` = number of most recent attempts remembered per link;
  /// `prior_successes`/`prior_attempts` form the Beta-style prior.
  explicit LinkEstimator(std::size_t window = 32, double prior_successes = 1.0,
                         double prior_attempts = 1.0) noexcept;

  /// Records the outcome of one transmission attempt from -> to.
  void record(int from, int to, bool success);

  /// Estimated success probability for from -> to (prior when unobserved).
  double estimate(int from, int to) const;

  /// out[i] = estimate(from, targets[i]) for every i < n, bit for bit: the
  /// prior into every slot, then one walk over `from`'s observed links
  /// instead of n separate scans (the p lane of a Q-scan). Duplicate
  /// targets and the BS sentinel are ordinary targets.
  void fill_estimates(int from, const int* targets, std::size_t n,
                      double* out) const;

  /// Number of recorded attempts currently inside the window.
  std::size_t observations(int from, int to) const;

  void clear();

 private:
  struct Window {
    std::uint64_t bits = 0;   // most recent outcome in LSB
    std::size_t count = 0;    // valid bits (<= window size)
    std::size_t successes = 0;
  };
  struct Entry {
    int to = 0;
    Window w;
  };

  double window_estimate(const Window& w) const noexcept {
    return (static_cast<double>(w.successes) + prior_s_) /
           (static_cast<double>(w.count) + prior_n_);
  }
  void push_outcome(Window& w, bool success) noexcept;
  const Window* find(int from, int to) const noexcept;

  std::size_t window_;
  double prior_s_;
  double prior_n_;
  std::vector<std::vector<Entry>> by_src_;            // index == from (>= 0)
  std::unordered_map<std::uint64_t, Window> other_;   // from < 0 fallback
};

}  // namespace qlec
