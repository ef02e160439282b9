#include "support/sampling.hpp"

#include "geom/sampling.hpp"

namespace qlec {

std::vector<Vec3> sample_clustered(std::size_t n, const Aabb& box,
                                   const std::vector<Vec3>& centers,
                                   const std::vector<double>& weights,
                                   double sigma, Rng& rng) {
  std::vector<Vec3> pts;
  pts.reserve(n);
  if (centers.empty()) return sample_uniform(n, box, rng);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = weights.empty()
                              ? rng.uniform_int(centers.size())
                              : rng.weighted_index(weights);
    const Vec3 p{centers[c].x + rng.normal(0.0, sigma),
                 centers[c].y + rng.normal(0.0, sigma),
                 centers[c].z + rng.normal(0.0, sigma)};
    pts.push_back(box.clamp(p));
  }
  return pts;
}

}  // namespace qlec
