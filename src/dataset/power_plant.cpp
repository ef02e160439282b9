#include "dataset/power_plant.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numbers>

#include "util/csv.hpp"

namespace qlec {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

bool parse_double(const std::string& s, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(s, &pos);
    return pos == s.size() && std::isfinite(out);
  } catch (...) {
    return false;
  }
}

}  // namespace

std::optional<std::vector<PowerPlant>> parse_power_plants(
    const std::string& csv_text) {
  const std::vector<CsvRow> rows = parse_csv(csv_text);
  if (rows.empty()) return std::nullopt;

  // Map required columns from the header.
  const CsvRow& header = rows.front();
  int col_name = -1, col_cap = -1, col_lat = -1, col_lon = -1, col_h = -1;
  for (std::size_t c = 0; c < header.size(); ++c) {
    const std::string h = lower(header[c]);
    if (h == "name") col_name = static_cast<int>(c);
    else if (h == "capacity_mw") col_cap = static_cast<int>(c);
    else if (h == "latitude") col_lat = static_cast<int>(c);
    else if (h == "longitude") col_lon = static_cast<int>(c);
    else if (h == "height_m") col_h = static_cast<int>(c);
  }
  if (col_cap < 0 || col_lat < 0 || col_lon < 0) return std::nullopt;

  std::vector<PowerPlant> plants;
  plants.reserve(rows.size() - 1);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const CsvRow& row = rows[r];
    const auto cell = [&](int c) -> std::string {
      return (c >= 0 && static_cast<std::size_t>(c) < row.size())
                 ? row[static_cast<std::size_t>(c)]
                 : std::string{};
    };
    PowerPlant p;
    p.name = cell(col_name);
    if (!parse_double(cell(col_cap), p.capacity_mw)) continue;
    if (!parse_double(cell(col_lat), p.latitude)) continue;
    if (!parse_double(cell(col_lon), p.longitude)) continue;
    if (col_h >= 0) {
      double h = 0.0;
      if (parse_double(cell(col_h), h)) p.height_m = h;
    }
    plants.push_back(std::move(p));
  }
  return plants;
}

Network dataset_to_network(const std::vector<PowerPlant>& plants,
                           const DatasetNetworkConfig& cfg) {
  if (plants.empty()) return Network({}, std::vector<double>{}, {}, {});

  // Equirectangular projection about the centroid latitude.
  double lat0 = 0.0;
  for (const PowerPlant& p : plants) lat0 += p.latitude;
  lat0 /= static_cast<double>(plants.size());
  const double cos_lat0 = std::cos(lat0 * std::numbers::pi / 180.0);

  std::vector<Vec3> raw;
  raw.reserve(plants.size());
  double cap_min = plants.front().capacity_mw;
  double cap_max = cap_min;
  for (const PowerPlant& p : plants) {
    raw.push_back({p.longitude * cos_lat0, p.latitude, p.height_m});
    cap_min = std::min(cap_min, p.capacity_mw);
    cap_max = std::max(cap_max, p.capacity_mw);
  }

  // Normalize the horizontal footprint to target_extent_m.
  Aabb raw_box{raw.front(), raw.front()};
  for (const Vec3& p : raw) raw_box.expand(p);
  const Vec3 ext = raw_box.extent();
  const double horiz = std::max({ext.x, ext.y, 1e-9});
  const double scale = cfg.target_extent_m / horiz;

  std::vector<Vec3> pts;
  pts.reserve(raw.size());
  Aabb box{{0, 0, 0}, {0, 0, 0}};
  for (const Vec3& p : raw) {
    const Vec3 q{(p.x - raw_box.lo.x) * scale, (p.y - raw_box.lo.y) * scale,
                 p.z};
    pts.push_back(q);
    box.expand(q);
  }

  // log-capacity -> initial energy.
  const double lmin = std::log10(std::max(cap_min, 1e-3));
  const double lmax = std::log10(std::max(cap_max, 1e-3));
  const double span = std::max(lmax - lmin, 1e-9);
  std::vector<double> energy;
  energy.reserve(plants.size());
  for (const PowerPlant& p : plants) {
    const double t =
        (std::log10(std::max(p.capacity_mw, 1e-3)) - lmin) / span;
    energy.push_back(cfg.e_min + t * (cfg.e_max - cfg.e_min));
  }

  const Vec3 bs{box.center().x, box.center().y, box.hi.z};
  return Network(pts, energy, bs, box);
}

}  // namespace qlec
