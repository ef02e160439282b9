// Terrain-aware propagation environment (DESIGN.md §16): an optional seam
// the simulator consults for link viability, attenuation, underwater amp
// cost, and position-dependent energy harvesting. Composes three occluder
// families over the deployment box:
//
//   * AABB obstacles ("urban canyon" blocks) that attenuate — or, past
//     sever_depth, sever — every line of sight crossing them;
//   * a procedural ridged height-field (the same two-crossed-sinusoid
//     formula behind geom/sampling's sample_terrain), treated as solid
//     rock below the surface;
//   * a water column with depth-dependent path loss (absorption per unit
//     of submerged path) and an amp-energy multiplier that grows with the
//     link's mean submerged depth.
//
// Contract (the repo-wide one): disabled ⇒ the Environment is never
// constructed and every committed golden digest is bit-identical. Enabled,
// the seam is RNG-free and a pure function of geometry, so traces stay
// invariant to ExecPolicy. A zero-obstruction enabled
// world yields link_factor == 1.0 and tx_amp_factor == 1.0 exactly, which
// keeps its trajectory byte-identical to an env-disabled run (the
// simulator multiplies probabilities by 1.0 or takes the unscaled branch).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/spatial_grid.hpp"
#include "geom/vec3.hpp"

namespace qlec {

/// One solid box obstruction. `extra_atten` is added to the world-wide
/// EnvConfig::atten_per_unit for path length inside THIS box (dense
/// material), so a world can mix glass and concrete.
struct EnvObstacle {
  Aabb box;
  double extra_atten = 0.0;  ///< >= 0, nepers per unit of path inside box

  friend bool operator==(const EnvObstacle&, const EnvObstacle&) = default;
};

/// Procedural ridge occluder. The surface height over (x, y) is
///   z(u, v) = lo.z + base_frac * ez + amplitude_frac * ez * h(u, v)
/// with h the sample_terrain ridge formula and ez the domain z-extent, so
/// amplitude_frac = 0.25, base_frac = 0.5 matches the deployment surface
/// of Deployment::kTerrain (minus its per-node jitter).
struct EnvTerrain {
  bool enabled = false;
  double amplitude_frac = 0.25;  ///< >= 0, ridge amplitude / domain z-extent
  double base_frac = 0.5;        ///< [0, 1], base height / domain z-extent

  friend bool operator==(const EnvTerrain&, const EnvTerrain&) = default;
};

/// Water column below surface_frac of the domain z-range. Submerged path
/// attenuates at alpha_per_unit (absorption; it never severs) and the amp
/// energy of a transmission scales with the link's mean submerged depth.
struct EnvWater {
  bool enabled = false;
  double surface_frac = 1.0;     ///< [0, 1], surface z / domain z-range
  double alpha_per_unit = 0.0;   ///< >= 0, nepers per unit submerged path
  double amp_depth_scale = 0.0;  ///< >= 0, amp multiplier slope per unit depth

  friend bool operator==(const EnvWater&, const EnvWater&) = default;
};

/// Position-dependent solar/surface harvesting: a node at depth d below
/// the water surface (water worlds) or below the terrain surface (buried
/// nodes in ridge worlds) harvests
///   per_round * max(min_factor, exp(-depth_decay * d))  joules per round.
struct EnvHarvest {
  double per_round = 0.0;    ///< >= 0, joules per node per round at depth 0
  double depth_decay = 0.0;  ///< >= 0, exponential decay per unit depth
  double min_factor = 0.0;   ///< [0, 1], harvest floor fraction

  friend bool operator==(const EnvHarvest&, const EnvHarvest&) = default;
};

struct EnvConfig {
  /// Master switch. Disabled ⇒ no Environment is constructed, no extra Rng
  /// draws happen, and every golden digest is bit-identical.
  bool enabled = false;
  /// Baseline attenuation per unit of obstructed path (AABB + terrain),
  /// applied as a success-probability factor exp(-atten_per_unit * depth).
  double atten_per_unit = 0.0;  ///< >= 0
  /// Obstruction depth at which a link is severed outright (factor 0).
  /// 0 disables severing (attenuation only).
  double sever_depth = 0.0;  ///< >= 0
  std::vector<EnvObstacle> obstacles;
  EnvTerrain terrain;
  EnvWater water;
  EnvHarvest harvest;

  friend bool operator==(const EnvConfig&, const EnvConfig&) = default;
};

class Environment {
 public:
  /// `domain` is the deployment box (Network::domain()); it anchors the
  /// terrain surface and the water column. Construction precomputes the
  /// obstacle index; no Rng is ever consulted.
  Environment(EnvConfig cfg, const Aabb& domain);

  /// Total obstructed path length of segment a—b through the AABB
  /// obstacles and the terrain body, in position units. Exactly symmetric:
  /// endpoints are canonicalized before any arithmetic, so
  /// obstruction_depth(a, b) == obstruction_depth(b, a) bit-for-bit.
  double obstruction_depth(const Vec3& a, const Vec3& b) const;

  /// Grid-free oracle with the identical per-obstacle math (the property
  /// battery cross-checks the accelerated path against this on randomized
  /// worlds; results are bit-identical).
  double obstruction_depth_brute(const Vec3& a, const Vec3& b) const;

  /// Multiplicative success-probability factor for the link a—b, in
  /// [0, 1]. 1.0 exactly for an unobstructed, surface link; 0.0 when the
  /// obstruction depth reaches sever_depth.
  double link_factor(const Vec3& a, const Vec3& b) const;

  /// True when the line of sight is severed (link_factor == 0).
  bool blocked(const Vec3& a, const Vec3& b) const {
    return link_factor(a, b) == 0.0;
  }

  /// Amp-energy multiplier (>= 1) for a transmission a -> b: 1 + the
  /// water amp_depth_scale times the link's mean submerged depth. The
  /// simulator scales only the amplifier part of tx_energy by this.
  double tx_amp_factor(const Vec3& a, const Vec3& b) const;

  /// Joules a node at `p` harvests this round (>= 0).
  double harvest_rate(const Vec3& p) const;
  bool harvest_active() const noexcept { return cfg_.harvest.per_round > 0.0; }

  /// Terrain surface height over (x, y); domain lo.z when terrain is off.
  double terrain_height(double x, double y) const;
  /// Water surface z (domain hi.z when water is off).
  double water_surface_z() const noexcept { return surface_z_; }

  const EnvConfig& config() const noexcept { return cfg_; }
  const Aabb& domain() const noexcept { return domain_; }

 private:
  struct Occlusion {
    double depth = 0.0;  ///< obstructed path length (AABB + terrain)
    double atten = 0.0;  ///< accumulated attenuation exponent (water excl.)
  };
  /// Canonicalizes the endpoint order, then accumulates depth/attenuation
  /// over `candidates` (obstacle indices, ascending) plus the terrain.
  Occlusion occlude(Vec3 a, Vec3 b,
                    const std::vector<std::size_t>& candidates) const;
  /// Length of segment a—b below the water surface, and the mean submerged
  /// depth over the whole segment (both 0 when water is off).
  void water_clip(const Vec3& a, const Vec3& b, double* submerged_len,
                  double* mean_depth) const;

  EnvConfig cfg_;
  Aabb domain_;
  double surface_z_ = 0.0;
  /// Obstacle index: grid over box centers, queried with the segment
  /// midpoint and a radius of half the segment length plus the largest
  /// obstacle half-diagonal. Built only past a small obstacle count — the
  /// brute scan wins below it.
  std::unique_ptr<SpatialGrid> grid_;
  double max_half_diag_ = 0.0;
  std::vector<std::size_t> all_indices_;    // 0..n-1, for the brute path
  mutable std::vector<std::size_t> scratch_;  // grid query buffer
};

}  // namespace qlec
