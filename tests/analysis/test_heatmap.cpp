#include "analysis/heatmap.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qlec {
namespace {

TEST(GridHeatmap, EmptyRendersPlaceholder) {
  const GridHeatmap h(0, 10, 0, 10, 4, 4);
  EXPECT_EQ(h.render(), "(empty heatmap)\n");
  EXPECT_TRUE(std::isnan(h.cell_mean(0, 0)));
}

TEST(GridHeatmap, AccumulatesMeans) {
  GridHeatmap h(0, 10, 0, 10, 2, 2);
  h.add(2.0, 2.0, 1.0);
  h.add(3.0, 3.0, 3.0);  // same cell (0,0)
  EXPECT_DOUBLE_EQ(h.cell_mean(0, 0), 2.0);
  EXPECT_TRUE(std::isnan(h.cell_mean(1, 1)));
}

TEST(GridHeatmap, CellIndexingByPosition) {
  GridHeatmap h(0, 10, 0, 10, 2, 2);
  h.add(7.5, 2.0, 5.0);  // (1, 0)
  h.add(2.0, 7.5, 9.0);  // (0, 1)
  EXPECT_DOUBLE_EQ(h.cell_mean(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(h.cell_mean(0, 1), 9.0);
  EXPECT_TRUE(std::isnan(h.cell_mean(0, 0)));
}

TEST(GridHeatmap, OutOfRangeClampsToBorder) {
  GridHeatmap h(0, 10, 0, 10, 2, 2);
  h.add(-5.0, -5.0, 1.0);
  h.add(100.0, 100.0, 2.0);
  EXPECT_DOUBLE_EQ(h.cell_mean(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(h.cell_mean(1, 1), 2.0);
  EXPECT_TRUE(std::isnan(h.cell_mean(1, 0)));
}

TEST(GridHeatmap, RenderShowsShadingGradient) {
  GridHeatmap h(0, 10, 0, 10, 2, 1);
  h.add(2.0, 5.0, 0.0);   // low cell
  h.add(7.0, 5.0, 10.0);  // high cell
  const std::string out = h.render();
  EXPECT_NE(out.find('.'), std::string::npos);  // low shade
  EXPECT_NE(out.find('@'), std::string::npos);  // high shade
  EXPECT_NE(out.find("shading"), std::string::npos);
}

TEST(GridHeatmap, DegenerateDimensionsClamped) {
  GridHeatmap h(0, 0, 0, 0, 0, 0);  // all degenerate
  h.add(0.0, 0.0, 1.0);
  EXPECT_EQ(h.nx(), 1u);
  EXPECT_EQ(h.ny(), 1u);
  EXPECT_DOUBLE_EQ(h.cell_mean(0, 0), 1.0);
}

TEST(ComputeEvenness, UniformValues) {
  const EvennessStats s = compute_evenness({2.0, 2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.cv, 0.0);
  EXPECT_NEAR(s.gini, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
}

TEST(ComputeEvenness, SkewedValues) {
  std::vector<double> v(99, 0.1);
  v.push_back(100.0);
  const EvennessStats s = compute_evenness(v);
  EXPECT_GT(s.cv, 2.0);
  EXPECT_GT(s.gini, 0.8);
  EXPECT_LT(s.p50, 1.0);
}

TEST(ComputeEvenness, EmptyInput) {
  const EvennessStats s = compute_evenness({});
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.gini, 0.0);
}

TEST(ComputeEvenness, PercentilesOrdered) {
  const EvennessStats s =
      compute_evenness({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_LE(s.p10, s.p50);
  EXPECT_LE(s.p50, s.p90);
}

}  // namespace
}  // namespace qlec
