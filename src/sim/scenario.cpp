#include "sim/scenario.hpp"

#include "geom/sampling.hpp"

namespace qlec {
namespace {

std::vector<double> energies(const ScenarioConfig& cfg, Rng& rng) {
  std::vector<double> e;
  e.reserve(cfg.n);
  const double h = cfg.energy_heterogeneity;
  for (std::size_t i = 0; i < cfg.n; ++i) {
    const double factor = h > 0.0 ? 1.0 + rng.uniform(-h, h) : 1.0;
    e.push_back(cfg.initial_energy * factor);
  }
  return e;
}

}  // namespace

Vec3 bs_position(BsPlacement placement, const Aabb& box) {
  const Vec3 c = box.center();
  switch (placement) {
    case BsPlacement::kCenter:
      return c;
    case BsPlacement::kTopFaceCenter:
      return {c.x, c.y, box.hi.z};
    case BsPlacement::kCorner:
      return box.hi;
    case BsPlacement::kExternal:
      return {c.x, c.y, box.hi.z + 0.5 * (box.hi.z - box.lo.z)};
  }
  return c;
}

Network make_uniform_network(const ScenarioConfig& cfg, Rng& rng) {
  const Aabb box = Aabb::cube(cfg.m_side);
  const std::vector<Vec3> pts = sample_uniform(cfg.n, box, rng);
  return Network(pts, energies(cfg, rng), bs_position(cfg.bs, box), box);
}

Network make_terrain_network(const ScenarioConfig& cfg, Rng& rng) {
  const Aabb box = Aabb::cube(cfg.m_side);
  const std::vector<Vec3> pts = sample_terrain(
      cfg.n, box, /*ridge_amplitude=*/0.25 * cfg.m_side,
      /*jitter=*/0.05 * cfg.m_side, rng);
  return Network(pts, energies(cfg, rng), bs_position(cfg.bs, box), box);
}

}  // namespace qlec
