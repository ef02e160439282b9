// Scenario builders: deployment geometry + energy provisioning for the
// paper's experiments and the examples.
#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "util/rng.hpp"

namespace qlec {

/// Deployment geometry for an experiment. A closed enum (rather than a
/// free-form string) so the config layer can reject unknown deployments at
/// parse time with a path-qualified error instead of mid-run. Config-file
/// tokens: the enum tables in config/schema.cpp.
enum class Deployment {
  kUniform,  ///< uniform random placement in the cube (the paper's setting)
  kTerrain,  ///< ridged height-field placement (mountain scenarios)
};

/// Where the sink sits relative to the M x M x M cube. The paper's §5.1
/// (k_opt ≈ 5 for N = 100, M = 200) is consistent with a sink on the cube
/// surface — the natural placement for its underwater/mountain motivation —
/// so kTopFaceCenter is the default; kCenter matches the Fig. 1 sketch.
enum class BsPlacement {
  kCenter,         ///< cube centroid (Fig. 1)
  kTopFaceCenter,  ///< center of the z = M face (surface sink; default)
  kCorner,         ///< cube corner
  kExternal,       ///< M/2 above the top face (remote collector)
};

Vec3 bs_position(BsPlacement placement, const Aabb& box);

struct ScenarioConfig {
  std::size_t n = 100;          ///< node count (paper: 100)
  double m_side = 200.0;        ///< cube side (paper: 200 units)
  double initial_energy = 5.0;  ///< joules per node (paper: 5 J)
  /// Relative spread of initial energy: node i gets
  /// initial_energy * (1 + U(-h, +h)). 0 = homogeneous (paper §5.1).
  double energy_heterogeneity = 0.0;
  BsPlacement bs = BsPlacement::kTopFaceCenter;

  friend bool operator==(const ScenarioConfig&, const ScenarioConfig&) =
      default;
};

/// Uniform random deployment in the cube (the paper's setting).
Network make_uniform_network(const ScenarioConfig& cfg, Rng& rng);

/// Mountainous deployment: nodes follow a ridged height-field (DESIGN.md;
/// exercises the paper's non-flat motivation).
Network make_terrain_network(const ScenarioConfig& cfg, Rng& rng);

}  // namespace qlec
