#include "sim/env/trajectory.hpp"

#include <cmath>
#include <numbers>

namespace qlec {

BsTrajectory::BsTrajectory(const BsTrajectoryConfig& cfg, const Vec3& anchor)
    : cfg_(cfg), anchor_(anchor) {
  if (cfg_.kind != TrajectoryKind::kWaypoint) return;
  pts_.push_back(anchor);
  for (const Vec3& w : cfg_.waypoints) pts_.push_back(w);
  if (cfg_.loop && pts_.size() > 1) pts_.push_back(anchor);  // close the loop
  cum_.assign(pts_.size(), 0.0);
  for (std::size_t i = 1; i < pts_.size(); ++i)
    cum_[i] = cum_[i - 1] + distance(pts_[i - 1], pts_[i]);
  total_ = cum_.empty() ? 0.0 : cum_.back();
}

Vec3 BsTrajectory::position(int round) const {
  switch (cfg_.kind) {
    case TrajectoryKind::kNone:
      break;
    case TrajectoryKind::kWaypoint: {
      if (pts_.empty()) break;
      if (total_ <= 0.0 || cfg_.speed <= 0.0) return pts_.front();
      double s = cfg_.speed * static_cast<double>(round);
      if (cfg_.loop) {
        s = std::fmod(s, total_);
      } else if (s >= total_) {
        return pts_.back();  // parked at the final waypoint
      }
      // Walk the polyline to the segment containing arc distance s.
      std::size_t i = 1;
      while (i + 1 < cum_.size() && cum_[i] <= s) ++i;
      const double seg = cum_[i] - cum_[i - 1];
      const double t = seg > 0.0 ? (s - cum_[i - 1]) / seg : 0.0;
      return lerp(pts_[i - 1], pts_[i], t);
    }
    case TrajectoryKind::kOrbit: {
      const int period = cfg_.orbit_period > 0 ? cfg_.orbit_period : 1;
      // Integer phase first: round N*period reproduces round 0 exactly.
      const int phase = round % period;
      const double theta = 2.0 * std::numbers::pi *
                           static_cast<double>(phase) /
                           static_cast<double>(period);
      return cfg_.orbit_center + Vec3{cfg_.orbit_radius * std::cos(theta),
                                      cfg_.orbit_radius * std::sin(theta),
                                      0.0};
    }
  }
  return anchor_;
}

}  // namespace qlec
