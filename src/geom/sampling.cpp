#include "geom/sampling.hpp"

#include <cmath>
#include <numbers>

namespace qlec {

std::vector<Vec3> sample_uniform(std::size_t n, const Aabb& box, Rng& rng) {
  std::vector<Vec3> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(box.lo.x, box.hi.x),
                   rng.uniform(box.lo.y, box.hi.y),
                   rng.uniform(box.lo.z, box.hi.z)});
  }
  return pts;
}

std::vector<Vec3> sample_terrain(std::size_t n, const Aabb& box,
                                 double ridge_amplitude, double jitter,
                                 Rng& rng) {
  std::vector<Vec3> pts;
  pts.reserve(n);
  const Vec3 e = box.extent();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(box.lo.x, box.hi.x);
    const double y = rng.uniform(box.lo.y, box.hi.y);
    const double u = (x - box.lo.x) / (e.x > 0 ? e.x : 1.0);
    const double v = (y - box.lo.y) / (e.y > 0 ? e.y : 1.0);
    // Two crossed sinusoidal ridges; cheap, smooth, and deterministic.
    const double h =
        0.5 * (std::sin(2.0 * std::numbers::pi * (2.0 * u + 0.3)) +
               std::cos(2.0 * std::numbers::pi * (1.5 * v - 0.1)));
    const double z = box.lo.z + 0.5 * e.z + ridge_amplitude * h +
                     rng.normal(0.0, jitter);
    pts.push_back(box.clamp({x, y, z}));
  }
  return pts;
}

DistanceMoments distance_moments(const std::vector<Vec3>& points,
                                 const Vec3& target) {
  DistanceMoments m;
  if (points.empty()) return m;
  for (const Vec3& p : points) {
    const double d2 = distance2(p, target);
    const double d = std::sqrt(d2);
    m.mean += d;
    m.mean_sq += d2;
    m.max = std::max(m.max, d);
  }
  const double n = static_cast<double>(points.size());
  m.mean /= n;
  m.mean_sq /= n;
  return m;
}

Vec3 centroid(const std::vector<Vec3>& points) {
  Vec3 c;
  if (points.empty()) return c;
  for (const Vec3& p : points) c += p;
  return c / static_cast<double>(points.size());
}

}  // namespace qlec
