#include "net/network_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "geom/sampling.hpp"
#include "util/rng.hpp"

namespace qlec {
namespace {

Network sample_network() {
  Rng rng(5);
  const Aabb box = Aabb::cube(200.0);
  Network net(sample_uniform(25, box, rng), 5.0, {100, 100, 200}, box);
  net.node(3).battery.consume(1.25);  // mid-run state
  net.node(7).battery.consume(5.0);   // dead node
  return net;
}

TEST(NetworkIo, RoundTripsEverything) {
  const Network original = sample_network();
  const auto restored = network_from_csv(network_to_csv(original));
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), original.size());
  EXPECT_EQ(restored->bs(), original.bs());
  EXPECT_EQ(restored->domain().lo, original.domain().lo);
  EXPECT_EQ(restored->domain().hi, original.domain().hi);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto id = static_cast<int>(i);
    EXPECT_EQ(restored->node(id).pos, original.node(id).pos);
    EXPECT_DOUBLE_EQ(restored->node(id).battery.initial(),
                     original.node(id).battery.initial());
    EXPECT_DOUBLE_EQ(restored->node(id).battery.residual(),
                     original.node(id).battery.residual());
  }
}

TEST(NetworkIo, DeadNodeStaysDead) {
  const auto restored = network_from_csv(network_to_csv(sample_network()));
  ASSERT_TRUE(restored.has_value());
  EXPECT_FALSE(restored->node(7).battery.alive(0.0));
}

TEST(NetworkIo, NumbersMatchPrintfG17) {
  // Every coordinate and energy goes through the shared %.17g-equivalent
  // formatter; hold the whole document to snprintf("%.17g") over > 1 M
  // random finite bit patterns.
  std::mt19937_64 rng(11);
  const auto draw = [&rng] {
    for (;;) {
      const std::uint64_t bits = rng();
      double d;
      std::memcpy(&d, &bits, sizeof d);
      if (std::isfinite(d)) return d;
    }
  };
  const auto g17 = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  std::vector<Vec3> pos;
  std::vector<double> energy;
  for (int i = 0; i < 210000; ++i) {
    pos.push_back({draw(), draw(), draw()});
    energy.push_back(std::fabs(draw()));
  }
  const Network net(pos, energy, {draw(), draw(), draw()},
                    Aabb{{draw(), draw(), draw()}, {draw(), draw(), draw()}});
  const auto point = [&](const char* kind, const Vec3& p) {
    return std::string(kind) + "," + g17(p.x) + "," + g17(p.y) + "," +
           g17(p.z) + ",0,0\n";
  };
  std::string expected = "kind,x,y,z,initial_j,residual_j\n" +
                         point("domain", net.domain().lo) +
                         point("domain", net.domain().hi) +
                         point("bs", net.bs());
  for (const SensorNode& n : net.nodes()) {
    expected += "node," + g17(n.pos.x) + "," + g17(n.pos.y) + "," +
                g17(n.pos.z) + "," + g17(n.battery.initial()) + "," +
                g17(n.battery.residual()) + "\n";
  }
  EXPECT_TRUE(network_to_csv(net) == expected);
}

TEST(NetworkIo, EmptyNetworkRoundTrips) {
  const Network net({}, std::vector<double>{}, {1, 2, 3}, Aabb::cube(10));
  const auto restored = network_from_csv(network_to_csv(net));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), 0u);
  EXPECT_EQ(restored->bs(), (Vec3{1, 2, 3}));
}

TEST(NetworkIo, RejectsMalformedInput) {
  EXPECT_FALSE(network_from_csv("").has_value());
  EXPECT_FALSE(network_from_csv("x,y\n1,2\n").has_value());
  EXPECT_FALSE(network_from_csv(
                   "kind,x,y,z,initial_j,residual_j\n"
                   "mystery,1,2,3,4,5\n")
                   .has_value());
  // Missing bs row.
  EXPECT_FALSE(network_from_csv(
                   "kind,x,y,z,initial_j,residual_j\n"
                   "domain,0,0,0,0,0\ndomain,9,9,9,0,0\n"
                   "node,1,1,1,5,5\n")
                   .has_value());
  // Unparseable numeric.
  EXPECT_FALSE(network_from_csv(
                   "kind,x,y,z,initial_j,residual_j\n"
                   "domain,0,0,0,0,0\ndomain,9,9,9,0,0\n"
                   "bs,4,4,4,0,0\nnode,abc,1,1,5,5\n")
                   .has_value());
}

TEST(NetworkIo, DomainExpandsToContainStrayNodes) {
  // A node outside the recorded domain still ends up inside the restored
  // box (expand semantics), so downstream k_opt math stays sane.
  const std::string csv =
      "kind,x,y,z,initial_j,residual_j\n"
      "domain,0,0,0,0,0\ndomain,10,10,10,0,0\n"
      "bs,5,5,10,0,0\n"
      "node,50,5,5,5,5\n";
  const auto restored = network_from_csv(csv);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->domain().contains({50, 5, 5}));
}

}  // namespace
}  // namespace qlec
