#include "geom/sectors.hpp"

#include <algorithm>

namespace qlec {

SectorGrid::SectorGrid(const Aabb& box, int nx, int ny, int nz)
    : box_(box),
      nx_(std::max(1, nx)),
      ny_(std::max(1, ny)),
      nz_(std::max(1, nz)) {}

std::uint64_t SectorGrid::axis_cell(double v, double lo, double hi,
                                    int n) noexcept {
  const double ext = hi - lo;
  if (!(ext > 0.0)) return std::uint64_t{0};  // degenerate axis (or NaN)
  const double t = (v - lo) / ext * static_cast<double>(n);
  const auto c = static_cast<long long>(t);
  return static_cast<std::uint64_t>(std::clamp<long long>(c, 0, n - 1));
}

}  // namespace qlec
