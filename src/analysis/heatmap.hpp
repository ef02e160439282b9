// 2-D spatial heat map (x/y projection) for the Fig. 4 energy-consumption
// map, plus the evenness statistics the figure argues for visually.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qlec {

class GridHeatmap {
 public:
  GridHeatmap(double x_lo, double x_hi, double y_lo, double y_hi,
              std::size_t nx, std::size_t ny);

  /// Accumulates one sample at (x, y); out-of-range samples clamp to the
  /// border cell.
  void add(double x, double y, double value);

  std::size_t nx() const noexcept { return nx_; }
  std::size_t ny() const noexcept { return ny_; }
  /// Mean of samples in cell (ix, iy); NaN when the cell is empty.
  double cell_mean(std::size_t ix, std::size_t iy) const;

  /// Character rendering: cells shaded ' .:-=+*#%@' by mean value between
  /// the occupied-cell min and max; empty cells print ' '. One row per
  /// y-band, highest y first, with a legend line.
  std::string render() const;

 private:
  std::size_t idx(std::size_t ix, std::size_t iy) const {
    return iy * nx_ + ix;
  }

  double x_lo_, x_hi_, y_lo_, y_hi_;
  std::size_t nx_, ny_;
  std::vector<double> sum_;
  std::vector<std::size_t> count_;
};

/// Evenness summary of a per-node metric (Fig. 4's "energy dissipated
/// evenly" claim, quantified).
struct EvennessStats {
  double mean = 0.0;
  double cv = 0.0;    ///< coefficient of variation
  double gini = 0.0;  ///< 0 = perfectly even
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
};
EvennessStats compute_evenness(const std::vector<double>& values);

}  // namespace qlec
