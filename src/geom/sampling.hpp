// Point-set generators for deployment scenarios.
#pragma once

#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "util/rng.hpp"

namespace qlec {

/// `n` i.i.d. uniform points inside `box` (the paper's random deployment).
std::vector<Vec3> sample_uniform(std::size_t n, const Aabb& box, Rng& rng);

/// Terrain-like deployment: uniform in x/y, z follows a smooth ridged
/// height-field h(x, y) plus jitter (the paper's mountainous motivation).
std::vector<Vec3> sample_terrain(std::size_t n, const Aabb& box,
                                 double ridge_amplitude, double jitter,
                                 Rng& rng);

/// Mean and mean-square distance from `points` to `target` — used for the
/// d_toBS approximation the paper takes from Bandyopadhyay & Coyle.
struct DistanceMoments {
  double mean = 0.0;
  double mean_sq = 0.0;
  double max = 0.0;
};
DistanceMoments distance_moments(const std::vector<Vec3>& points,
                                 const Vec3& target);

/// Centroid of a point set (origin for an empty set).
Vec3 centroid(const std::vector<Vec3>& points);

}  // namespace qlec
