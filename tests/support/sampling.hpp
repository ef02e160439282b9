// Clumpy point sets for the clustering tests: blobs with known centers that
// k-means and FCM must recover.
#pragma once

#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "util/rng.hpp"

namespace qlec {

/// Points drawn around `centers` with isotropic Gaussian spread `sigma`,
/// clamped into `box`; center choice is weighted by `weights` (empty =>
/// uniform). With no centers, falls back to sample_uniform.
std::vector<Vec3> sample_clustered(std::size_t n, const Aabb& box,
                                   const std::vector<Vec3>& centers,
                                   const std::vector<double>& weights,
                                   double sigma, Rng& rng);

}  // namespace qlec
