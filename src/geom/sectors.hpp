// Axis-aligned sector partitioning of a deployment volume.
//
// Two regional protocols share this one code path:
//   - Q-LEACH (arXiv 1303.5240) statically sectors the volume into
//     quadrants (2x2x1) and runs a LEACH rotation inside each sector;
//   - REECH-ME (arXiv 1307.7052) elects the maximum-residual-energy node
//     of each region as its head.
//
// A SectorGrid is a pure function of its box and per-axis cell counts, so
// everything built on it stays deterministic. Degenerate axes (zero or
// negative extent, NaN bounds) collapse to a single cell on that axis'
// index computation, and points outside the box clamp to the boundary
// cells, so callers never need to special-case flat or empty geometry.
#pragma once

#include <cstdint>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"

namespace qlec {

/// How a regional protocol sectors the deployment volume: `kQuadrant`
/// splits x and y at the box center (2x2x1, the planar split of the
/// Q-LEACH paper); `kOctant` also splits z (2x2x2, the natural lift to
/// the 3-D deployments this repo targets). Config-file tokens: the
/// enum tables in config/schema.cpp.
enum class SectorMode { kQuadrant, kOctant };

/// An axis-aligned grid of nx * ny * nz sectors over a box.
class SectorGrid {
 public:
  /// Empty unit grid (1x1x1 over a degenerate box at the origin).
  SectorGrid() = default;

  /// Grid of `nx * ny * nz` equal cells over `box`. Counts are clamped
  /// to >= 1; a degenerate axis (extent not > 0) always indexes to cell
  /// 0 regardless of its count.
  SectorGrid(const Aabb& box, int nx, int ny, int nz);

  /// The 2x2x1 planar quadrants of `box`.
  static SectorGrid quadrants(const Aabb& box) { return {box, 2, 2, 1}; }
  /// The 2x2x2 octants of `box`.
  static SectorGrid octants(const Aabb& box) { return {box, 2, 2, 2}; }
  static SectorGrid for_mode(const Aabb& box, SectorMode m) {
    return m == SectorMode::kQuadrant ? quadrants(box) : octants(box);
  }

  /// Total number of sectors (nx * ny * nz, always >= 1).
  std::size_t count() const {
    return static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) *
           static_cast<std::size_t>(nz_);
  }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  const Aabb& box() const { return box_; }

  /// Sweep index of the sector containing `p`: x varies fastest, then y,
  /// then z — `(cz * ny + cy) * nx + cx`. Always in [0, count()).
  std::uint64_t sector_of(const Vec3& p) const {
    const std::uint64_t cx = axis_cell(p.x, box_.lo.x, box_.hi.x, nx_);
    const std::uint64_t cy = axis_cell(p.y, box_.lo.y, box_.hi.y, ny_);
    const std::uint64_t cz = axis_cell(p.z, box_.lo.z, box_.hi.z, nz_);
    return (cz * static_cast<std::uint64_t>(ny_) + cy) *
               static_cast<std::uint64_t>(nx_) +
           cx;
  }

 private:
  /// Cell index of `v` on one axis: 0 for a degenerate axis (extent not
  /// > 0, which also catches NaN bounds), otherwise
  /// `clamp(floor((v - lo) / ext * n), 0, n - 1)`.
  static std::uint64_t axis_cell(double v, double lo, double hi,
                                 int n) noexcept;

  Aabb box_{{0, 0, 0}, {0, 0, 0}};
  int nx_ = 1;
  int ny_ = 1;
  int nz_ = 1;
};

}  // namespace qlec
