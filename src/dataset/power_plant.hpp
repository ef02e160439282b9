// Power-plant records for the Section 5.3 experiment. The paper uses the
// WRI Global Power Plant Database (2896 plants in China), treating each
// plant's energy value as a sensor's initial energy and assigning a random
// height to lift the data into 3-D. The loader accepts a CSV in the real
// GPPD column subset (name,capacity_mw,latitude,longitude[,height_m]) so a
// genuine extract can be dropped in; src/dataset/synthetic_gppd.* generates
// a statistically matched substitute (DESIGN.md §4).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace qlec {

struct PowerPlant {
  std::string name;
  double capacity_mw = 0.0;
  double latitude = 0.0;   // degrees
  double longitude = 0.0;  // degrees
  double height_m = 0.0;   // the paper's random height assignment
};

/// Parses plants from CSV text with header
/// `name,capacity_mw,latitude,longitude[,height_m]`. Rows with
/// unparseable numerics are skipped. Returns nullopt when the header is
/// malformed.
std::optional<std::vector<PowerPlant>> parse_power_plants(
    const std::string& csv_text);

/// Conversion knobs for dataset -> Network.
struct DatasetNetworkConfig {
  /// Initial energy mapped affinely from log10(capacity): a plant at the
  /// dataset's minimum capacity gets e_min J, the maximum gets e_max J.
  double e_min = 2.0;
  double e_max = 10.0;
  /// Degrees -> meters scale is chosen so the bounding box's largest
  /// horizontal extent equals `target_extent_m` (keeps radio distances in a
  /// regime where the energy model is meaningful).
  double target_extent_m = 500.0;
};

/// Builds a 3-D Network from plant records: equirectangular projection of
/// (lon, lat), height as z, capacity -> initial energy, BS at the centroid
/// of the deployment (top of the box).
Network dataset_to_network(const std::vector<PowerPlant>& plants,
                           const DatasetNetworkConfig& cfg = {});

}  // namespace qlec
