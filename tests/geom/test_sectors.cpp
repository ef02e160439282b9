// Properties of the shared sector grid (geom/sectors): quadrant vs octant
// cell layout, clamping of out-of-box points, and sane handling of
// degenerate boxes. The regional protocols (Q-LEACH, REECH-ME) sit on this
// one primitive.
#include <gtest/gtest.h>

#include <vector>

#include "geom/sectors.hpp"
#include "util/rng.hpp"

namespace qlec {
namespace {

std::vector<Vec3> random_cloud(std::size_t n, std::uint64_t seed,
                               double side = 100.0) {
  Rng rng(seed);
  std::vector<Vec3> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pos.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side),
                   rng.uniform(0.0, side)});
  return pos;
}

TEST(Sectors, QuadrantAndOctantCounts) {
  const Aabb box = Aabb::cube(100.0);
  EXPECT_EQ(SectorGrid::quadrants(box).count(), 4u);
  EXPECT_EQ(SectorGrid::octants(box).count(), 8u);
  EXPECT_EQ(SectorGrid::for_mode(box, SectorMode::kQuadrant).count(), 4u);
  EXPECT_EQ(SectorGrid::for_mode(box, SectorMode::kOctant).count(), 8u);
}

TEST(Sectors, QuadrantsSplitAtTheCenterAndIgnoreZ) {
  const SectorGrid grid = SectorGrid::quadrants(Aabb::cube(100.0));
  // x varies fastest, then y; z never changes the index in quadrant mode.
  EXPECT_EQ(grid.sector_of({10, 10, 0}), 0u);
  EXPECT_EQ(grid.sector_of({90, 10, 99}), 1u);
  EXPECT_EQ(grid.sector_of({10, 90, 50}), 2u);
  EXPECT_EQ(grid.sector_of({90, 90, 1}), 3u);
}

TEST(Sectors, OctantsSplitAllThreeAxes) {
  const SectorGrid grid = SectorGrid::octants(Aabb::cube(100.0));
  EXPECT_EQ(grid.sector_of({10, 10, 10}), 0u);
  EXPECT_EQ(grid.sector_of({90, 10, 10}), 1u);
  EXPECT_EQ(grid.sector_of({10, 90, 10}), 2u);
  EXPECT_EQ(grid.sector_of({90, 90, 10}), 3u);
  EXPECT_EQ(grid.sector_of({10, 10, 90}), 4u);
  EXPECT_EQ(grid.sector_of({90, 90, 90}), 7u);
}

TEST(Sectors, EveryIndexStaysInRange) {
  const SectorGrid grid(Aabb::cube(50.0), 3, 4, 5);
  EXPECT_EQ(grid.count(), 60u);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    // Include points well outside the box: they clamp to boundary cells.
    const Vec3 p{rng.uniform(-100.0, 150.0), rng.uniform(-100.0, 150.0),
                 rng.uniform(-100.0, 150.0)};
    EXPECT_LT(grid.sector_of(p), grid.count());
  }
}

TEST(Sectors, UniformCloudPopulatesEveryOctant) {
  const SectorGrid grid = SectorGrid::octants(Aabb::cube(100.0));
  std::vector<int> count(grid.count(), 0);
  for (const Vec3& p : random_cloud(400, 3))
    ++count[static_cast<std::size_t>(grid.sector_of(p))];
  for (const int c : count) EXPECT_GT(c, 0);
}

TEST(Sectors, DegenerateBoxesCollapseToOneCellPerFlatAxis) {
  // Zero-extent box: everything lands in sector 0, whatever the counts.
  const SectorGrid flat(Aabb{{5, 5, 5}, {5, 5, 5}}, 4, 4, 4);
  EXPECT_EQ(flat.sector_of({5, 5, 5}), 0u);
  EXPECT_EQ(flat.sector_of({-10, 99, 3}), 0u);
  // A planar box (z flat) still sectors in xy.
  const SectorGrid plane(Aabb{{0, 0, 7}, {100, 100, 7}}, 2, 2, 2);
  EXPECT_EQ(plane.sector_of({10, 10, 7}), 0u);
  EXPECT_EQ(plane.sector_of({90, 90, 7}), 3u);
  // Inverted box (hi < lo): degenerate on every axis, never out of range.
  const SectorGrid inverted(Aabb{{10, 10, 10}, {0, 0, 0}}, 3, 3, 3);
  EXPECT_EQ(inverted.sector_of({5, 5, 5}), 0u);
}

TEST(Sectors, NonPositiveCountsClampToOne) {
  const SectorGrid grid(Aabb::cube(10.0), 0, -3, 2);
  EXPECT_EQ(grid.nx(), 1);
  EXPECT_EQ(grid.ny(), 1);
  EXPECT_EQ(grid.nz(), 2);
  EXPECT_EQ(grid.count(), 2u);
}

}  // namespace
}  // namespace qlec
