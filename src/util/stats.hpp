// Streaming and batch statistics used to aggregate simulation results.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qlec {

/// Welford streaming accumulator: numerically stable mean/variance plus
/// min/max, O(1) memory.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }
  /// Half-width of the 95% normal-approximation confidence interval of the
  /// mean; 0 with fewer than two samples.
  double ci95_halfwidth() const noexcept;
  /// Coefficient of variation (stddev / mean); 0 when the mean is 0.
  double cv() const noexcept;

  /// Welford second central moment (sum of squared deviations). Together
  /// with count/mean/min/max this is the full accumulator state, which is
  /// what lets a serialized RunningStats round-trip exactly.
  double m2() const noexcept { return n_ ? m2_ : 0.0; }

  /// Reconstructs an accumulator from its serialized state — the inverse of
  /// reading {count, mean, m2, min, max}. `from_moments(s.count(), s.mean(),
  /// s.m2(), s.min(), s.max())` compares identical to `s` for every method.
  static RunningStats from_moments(std::size_t count, double mean, double m2,
                                   double min, double max) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Interpolated percentile (q in [0,1]) of an unsorted sample. Copies and
/// sorts; returns 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Fixed-bin histogram over [lo, hi); values outside are clamped into the
/// first/last bin so mass is never silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t total() const noexcept { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// One-line-per-bin ASCII rendering with proportional bars.
  std::string render(std::size_t bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Gini coefficient of a non-negative sample, used by the Fig. 4 evenness
/// analysis (0 = perfectly even energy consumption, 1 = maximally skewed).
double gini(std::vector<double> values);

}  // namespace qlec
