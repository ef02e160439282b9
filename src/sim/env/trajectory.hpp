// Mobile base-station / data-mule trajectories (DESIGN.md §16). The BS
// position becomes a pure function of the round index — a waypoint
// polyline walked at constant speed, or a circular orbit — advanced by the
// simulator at the top of every round, on the main thread, before any
// other phase runs. The layer draws no randomness and touches no per-node
// state, so RNG streams and (with kind == none, the default) every
// committed golden digest are untouched.
//
// Composition with BsPlacement: the scenario's placement keeps its role as
// the ANCHOR. Waypoint paths start at the placed position and walk toward
// the configured waypoints; orbits ignore the anchor's x/y (the circle is
// explicit) but default their center to it when unset is not expressible —
// worlds state the center explicitly.
#pragma once

#include <vector>

#include "geom/vec3.hpp"

namespace qlec {

/// Config-file tokens: the enum tables in config/schema.cpp.
enum class TrajectoryKind {
  kNone = 0,  ///< static BS (the default; digest-neutral)
  kWaypoint,  ///< constant-speed polyline through `waypoints`
  kOrbit,     ///< circle of `orbit_radius` around `orbit_center`
};

/// Serialized as the top-level "bs": {"trajectory": {...}} config block.
struct BsTrajectoryConfig {
  TrajectoryKind kind = TrajectoryKind::kNone;
  /// Waypoint mode: the polyline the BS walks, starting from the
  /// scenario's BsPlacement anchor toward waypoints[0], [1], ...
  std::vector<Vec3> waypoints;
  double speed = 0.0;  ///< >= 0, position units advanced per round
  /// Waypoint mode: wrap back to the anchor after the last waypoint
  /// (closed patrol loop) instead of parking there.
  bool loop = false;
  Vec3 orbit_center{};        ///< orbit mode: circle center
  double orbit_radius = 0.0;  ///< >= 0
  int orbit_period = 1;       ///< >= 1, rounds per full revolution

  friend bool operator==(const BsTrajectoryConfig&,
                         const BsTrajectoryConfig&) = default;
};

class BsTrajectory {
 public:
  /// `anchor` is the scenario's static BS position (bs_position of the
  /// configured BsPlacement) — the waypoint path's starting point.
  BsTrajectory(const BsTrajectoryConfig& cfg, const Vec3& anchor);

  bool active() const noexcept { return cfg_.kind != TrajectoryKind::kNone; }

  /// BS position at the START of `round` (round 0 is the first simulated
  /// round). A pure function of `round`: replays and ExecPolicy cannot
  /// perturb it.
  Vec3 position(int round) const;

  const BsTrajectoryConfig& config() const noexcept { return cfg_; }

 private:
  BsTrajectoryConfig cfg_;
  Vec3 anchor_;             ///< the static placement (kNone fallback)
  std::vector<Vec3> pts_;   ///< anchor + waypoints (waypoint mode)
  std::vector<double> cum_; ///< cumulative arc length at pts_[i]
  double total_ = 0.0;      ///< full path length
};

}  // namespace qlec
