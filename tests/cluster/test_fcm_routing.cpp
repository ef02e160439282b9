#include "cluster/fcm_routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace qlec {
namespace {

// A line of heads at increasing distance from the BS at the origin.
Network line_network() {
  std::vector<Vec3> pts;
  for (int i = 0; i < 8; ++i)
    pts.push_back({static_cast<double>(10 * (i + 1)), 0, 0});
  return Network(pts, 5.0, /*bs=*/{0, 0, 0}, Aabb::cube(100.0));
}

// The relay chain a head's aggregate follows: fcm_next_hop until the BS.
std::vector<int> route_to_bs(const Network& net, const FcmHierarchy& h,
                             int from_head) {
  std::vector<int> path;
  for (int at = from_head; at != kBaseStationId;) {
    at = fcm_next_hop(net, h, at);
    path.push_back(at);
  }
  return path;
}

TEST(FcmHierarchy, EmptyHeads) {
  const Network net = line_network();
  const FcmHierarchy h = build_fcm_hierarchy(net, {}, 3);
  EXPECT_EQ(h.levels, 0);
  EXPECT_TRUE(h.head_ids.empty());
}

TEST(FcmHierarchy, LevelsPartitionByDistance) {
  const Network net = line_network();
  const std::vector<int> heads{0, 1, 2, 3, 4, 5, 6, 7};
  const FcmHierarchy h = build_fcm_hierarchy(net, heads, 4);
  ASSERT_EQ(h.level_of.size(), 8u);
  EXPECT_EQ(h.levels, 4);
  EXPECT_DOUBLE_EQ(h.band_width, 20.0);
  // Distances 10..80; band width 20 with floor(d / band), clamped:
  // d=10 -> 0, d=20 -> 1, d=40 -> 2, d=80 -> 4 clamped to 3.
  EXPECT_EQ(h.level_of[0], 0);
  EXPECT_EQ(h.level_of[1], 1);
  EXPECT_EQ(h.level_of[3], 2);
  EXPECT_EQ(h.level_of[7], 3);
}

TEST(FcmHierarchy, LevelsMonotoneInDistance) {
  const Network net = line_network();
  const std::vector<int> heads{0, 1, 2, 3, 4, 5, 6, 7};
  const FcmHierarchy h = build_fcm_hierarchy(net, heads, 3);
  for (std::size_t i = 1; i < heads.size(); ++i)
    EXPECT_GE(h.level_of[i], h.level_of[i - 1]);
}

TEST(FcmHierarchy, LevelsClampedToHeadCount) {
  const Network net = line_network();
  const std::vector<int> heads{0, 1};
  const FcmHierarchy h = build_fcm_hierarchy(net, heads, 10);
  EXPECT_LE(h.levels, 2);
}

TEST(FcmNextHop, InnermostGoesToBs) {
  const Network net = line_network();
  const std::vector<int> heads{0, 3, 7};
  const FcmHierarchy h = build_fcm_hierarchy(net, heads, 3);
  EXPECT_EQ(fcm_next_hop(net, h, 0), kBaseStationId);
}

TEST(FcmNextHop, OuterHopsToNearestInnerHead) {
  const Network net = line_network();
  const std::vector<int> heads{0, 3, 7};
  const FcmHierarchy h = build_fcm_hierarchy(net, heads, 3);
  // Head 7 (d=80, outermost) should relay via head 3 (d=40) — the nearest
  // strictly-inner head — not jump to 0 or the BS.
  EXPECT_EQ(fcm_next_hop(net, h, 7), 3);
  EXPECT_EQ(fcm_next_hop(net, h, 3), 0);
}

TEST(FcmNextHop, UnknownHeadGoesToBs) {
  const Network net = line_network();
  const FcmHierarchy h = build_fcm_hierarchy(net, {1, 5}, 2);
  EXPECT_EQ(fcm_next_hop(net, h, 6), kBaseStationId);
}

TEST(FcmRouteToBs, PathTerminatesAtBs) {
  const Network net = line_network();
  const std::vector<int> heads{0, 2, 4, 6};
  const FcmHierarchy h = build_fcm_hierarchy(net, heads, 4);
  const auto path = route_to_bs(net, h, 6);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), kBaseStationId);
  // Strictly descending levels => no repeats, bounded length.
  EXPECT_LE(path.size(), heads.size() + 1);
}

TEST(FcmRouteToBs, OuterPathsAreLonger) {
  const Network net = line_network();
  const std::vector<int> heads{0, 2, 4, 6};
  const FcmHierarchy h = build_fcm_hierarchy(net, heads, 4);
  EXPECT_GT(route_to_bs(net, h, 6).size(),
            route_to_bs(net, h, 0).size());
}

TEST(FcmRouteToBs, SingleLevelEveryoneDirect) {
  const Network net = line_network();
  const std::vector<int> heads{1, 4, 7};
  const FcmHierarchy h = build_fcm_hierarchy(net, heads, 1);
  for (const int head : heads) {
    const auto path = route_to_bs(net, h, head);
    EXPECT_EQ(path, (std::vector<int>{kBaseStationId}));
  }
}

}  // namespace
}  // namespace qlec
