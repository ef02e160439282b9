// Hierarchical multi-hop routing for the FCM-based comparator (Wang, Qin &
// Liu, WCNC 2018): the network is divided into hierarchies by distance to
// the BS; a cluster head relays its aggregate through the nearest head in a
// strictly inner hierarchy, hopping ring by ring toward the BS. The QLEC
// paper attributes the comparator's congestion losses and latency to exactly
// this multi-hop behaviour.
#pragma once

#include <vector>

#include "net/network.hpp"

namespace qlec {

struct FcmHierarchy {
  /// level_of[i] = hierarchy index of head ids[i]; 0 = innermost ring.
  std::vector<int> level_of;
  std::vector<int> head_ids;
  int levels = 0;
  double band_width = 0.0;  ///< radial width of one ring, in meters
};

/// Partitions `head_ids` into `levels` equal-width distance rings around
/// the BS. `levels` is clamped to [1, heads].
FcmHierarchy build_fcm_hierarchy(const Network& net,
                                 const std::vector<int>& head_ids,
                                 int levels);

/// Next hop for head `from_head`: the nearest head whose hierarchy level is
/// strictly lower; the innermost ring (level 0) — or any head with no inner
/// neighbour — uplinks straight to the BS (kBaseStationId). Following it
/// always reaches the BS, because levels strictly decrease.
int fcm_next_hop(const Network& net, const FcmHierarchy& hierarchy,
                 int from_head);

}  // namespace qlec
