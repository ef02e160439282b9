#include "cluster/fcm_routing.hpp"

#include <algorithm>
#include <limits>

namespace qlec {

FcmHierarchy build_fcm_hierarchy(const Network& net,
                                 const std::vector<int>& head_ids,
                                 int levels) {
  FcmHierarchy h;
  h.head_ids = head_ids;
  if (head_ids.empty()) return h;
  levels = std::clamp<int>(levels, 1, static_cast<int>(head_ids.size()));
  h.levels = levels;

  double max_d = 0.0;
  for (const int id : head_ids) max_d = std::max(max_d, net.dist_to_bs(id));
  h.band_width = max_d > 0.0 ? max_d / static_cast<double>(levels) : 1.0;

  h.level_of.reserve(head_ids.size());
  for (const int id : head_ids) {
    const double d = net.dist_to_bs(id);
    int level = static_cast<int>(d / h.band_width);
    level = std::clamp(level, 0, levels - 1);
    h.level_of.push_back(level);
  }
  return h;
}

int fcm_next_hop(const Network& net, const FcmHierarchy& hierarchy,
                 int from_head) {
  // Locate the source's level.
  int from_level = -1;
  for (std::size_t i = 0; i < hierarchy.head_ids.size(); ++i) {
    if (hierarchy.head_ids[i] == from_head) {
      from_level = hierarchy.level_of[i];
      break;
    }
  }
  if (from_level <= 0) return kBaseStationId;

  int best = kBaseStationId;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < hierarchy.head_ids.size(); ++i) {
    if (hierarchy.level_of[i] >= from_level) continue;
    const double d = net.dist(from_head, hierarchy.head_ids[i]);
    if (d < best_d) {
      best_d = d;
      best = hierarchy.head_ids[i];
    }
  }
  return best;  // no inner head found => direct to BS
}

}  // namespace qlec
