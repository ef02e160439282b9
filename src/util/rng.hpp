// Deterministic pseudo-random number generation for simulations.
//
// The simulator needs reproducible runs (same seed => identical trajectory)
// across platforms, so we avoid std::mt19937 + std:: distributions (whose
// outputs are implementation-defined for some distributions) and ship our own
// xoshiro256** generator with explicit distribution implementations.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace qlec {

/// xoshiro256** 1.0 by Blackman & Vigna, seeded via splitmix64.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also feed
/// standard algorithms when determinism across standard libraries does not
/// matter.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit output.
  std::uint64_t operator()() noexcept { return next_u64(); }
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling, so
  /// the result is unbiased.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exponential variate with the given mean (mean = 1/rate). mean <= 0
  /// returns 0.
  double exponential(double mean) noexcept;

  /// Normal variate (Box-Muller, one value per call; no cached spare so the
  /// stream position is predictable).
  double normal(double mu, double sigma) noexcept;

  /// Log-normal variate: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Fisher-Yates shuffle of `v` (deterministic given the stream position).
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples an index from non-negative weights (linear scan). All-zero or
  /// empty weights fall back to uniform / zero respectively.
  std::size_t weighted_index(const std::vector<double>& weights) noexcept;

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace qlec
