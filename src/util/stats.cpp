#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace qlec {

void RunningStats::add(double x) noexcept {
  ++n_;
  if (n_ == 1) {
    mean_ = min_ = max_ = x;
    m2_ = 0.0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

RunningStats RunningStats::from_moments(std::size_t count, double mean,
                                        double m2, double min,
                                        double max) noexcept {
  RunningStats s;
  if (count == 0) return s;
  s.n_ = count;
  s.mean_ = mean;
  s.m2_ = m2;
  s.min_ = min;
  s.max_ = max;
  return s;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double RunningStats::cv() const noexcept {
  return mean_ != 0.0 ? stddev() / mean_ : 0.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins == 0 ? 1 : bins, 0) {}

void Histogram::add(double x) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  std::ptrdiff_t idx = width > 0.0
                           ? static_cast<std::ptrdiff_t>((x - lo_) / width)
                           : 0;
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::string Histogram::render(std::size_t bar_width) const {
  std::size_t peak = 1;
  for (const std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto len = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(bar_width));
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%8.3g, %8.3g) %6zu |", bin_lo(i),
                  bin_hi(i), counts_[i]);
    out << buf << std::string(len, '#') << '\n';
  }
  return out.str();
}

double gini(std::vector<double> values) {
  if (values.size() < 2) return 0.0;
  std::sort(values.begin(), values.end());
  double cum = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = std::max(values[i], 0.0);
    cum += v;
    weighted += v * static_cast<double>(i + 1);
  }
  if (cum <= 0.0) return 0.0;
  const double n = static_cast<double>(values.size());
  return (2.0 * weighted) / (n * cum) - (n + 1.0) / n;
}

}  // namespace qlec
