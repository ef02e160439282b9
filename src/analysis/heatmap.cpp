#include "analysis/heatmap.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/stats.hpp"

namespace qlec {
namespace {
constexpr const char* kShades = " .:-=+*#%@";  // index 0 unused for occupied
}

GridHeatmap::GridHeatmap(double x_lo, double x_hi, double y_lo, double y_hi,
                         std::size_t nx, std::size_t ny)
    : x_lo_(x_lo),
      x_hi_(x_hi > x_lo ? x_hi : x_lo + 1.0),
      y_lo_(y_lo),
      y_hi_(y_hi > y_lo ? y_hi : y_lo + 1.0),
      nx_(std::max<std::size_t>(nx, 1)),
      ny_(std::max<std::size_t>(ny, 1)),
      sum_(nx_ * ny_, 0.0),
      count_(nx_ * ny_, 0) {}

void GridHeatmap::add(double x, double y, double value) {
  const double fx = (x - x_lo_) / (x_hi_ - x_lo_);
  const double fy = (y - y_lo_) / (y_hi_ - y_lo_);
  const auto ix = static_cast<std::size_t>(std::clamp(
      fx * static_cast<double>(nx_), 0.0, static_cast<double>(nx_ - 1)));
  const auto iy = static_cast<std::size_t>(std::clamp(
      fy * static_cast<double>(ny_), 0.0, static_cast<double>(ny_ - 1)));
  sum_[idx(ix, iy)] += value;
  ++count_[idx(ix, iy)];
}

double GridHeatmap::cell_mean(std::size_t ix, std::size_t iy) const {
  const std::size_t c = count_.at(idx(ix, iy));
  if (c == 0) return std::numeric_limits<double>::quiet_NaN();
  return sum_[idx(ix, iy)] / static_cast<double>(c);
}

std::string GridHeatmap::render() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t iy = 0; iy < ny_; ++iy) {
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      const double m = cell_mean(ix, iy);
      if (std::isnan(m)) continue;
      lo = std::min(lo, m);
      hi = std::max(hi, m);
    }
  }
  std::ostringstream out;
  if (lo > hi) return "(empty heatmap)\n";
  const double span = hi > lo ? hi - lo : 1.0;
  const std::size_t shades = std::string(kShades).size();
  for (std::size_t row = 0; row < ny_; ++row) {
    const std::size_t iy = ny_ - 1 - row;  // highest y first
    out << "  |";
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      const double m = cell_mean(ix, iy);
      if (std::isnan(m)) {
        out << ' ';
        continue;
      }
      auto level = static_cast<std::size_t>(
          (m - lo) / span * static_cast<double>(shades - 2));
      level = std::min(level, shades - 2);
      out << kShades[level + 1];
    }
    out << "|\n";
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "  shading '%s': %.4g (low) -> %.4g (high)",
                kShades, lo, hi);
  out << buf << '\n';
  return out.str();
}

EvennessStats compute_evenness(const std::vector<double>& values) {
  EvennessStats s;
  if (values.empty()) return s;
  RunningStats rs;
  for (const double v : values) rs.add(v);
  s.mean = rs.mean();
  s.cv = rs.cv();
  s.gini = gini(values);
  s.p10 = percentile(values, 0.10);
  s.p50 = percentile(values, 0.50);
  s.p90 = percentile(values, 0.90);
  return s;
}

}  // namespace qlec
