#include "net/network_io.hpp"

#include <sstream>
#include <vector>

#include "util/csv.hpp"
#include "util/number_format.hpp"

namespace qlec {
namespace {

bool parse_num(const std::string& s, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

std::string network_to_csv(const Network& net) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row(CsvRow{"kind", "x", "y", "z", "initial_j", "residual_j"});
  const auto point_row = [&](const char* kind, const Vec3& p) {
    w.write_row(CsvRow{kind, format_g17(p.x), format_g17(p.y),
                       format_g17(p.z), "0", "0"});
  };
  point_row("domain", net.domain().lo);
  point_row("domain", net.domain().hi);
  point_row("bs", net.bs());
  for (const SensorNode& n : net.nodes()) {
    w.write_row(CsvRow{"node", format_g17(n.pos.x), format_g17(n.pos.y),
                       format_g17(n.pos.z), format_g17(n.battery.initial()),
                       format_g17(n.battery.residual())});
  }
  return out.str();
}

std::optional<Network> network_from_csv(const std::string& text) {
  const auto rows = parse_csv(text);
  if (rows.empty() || rows.front().size() < 6 ||
      rows.front()[0] != "kind")
    return std::nullopt;

  std::vector<Vec3> positions;
  std::vector<double> initial;
  std::vector<double> residual;
  std::vector<Vec3> domain_corners;
  std::optional<Vec3> bs;

  for (std::size_t i = 1; i < rows.size(); ++i) {
    const CsvRow& row = rows[i];
    if (row.size() < 6) return std::nullopt;
    double x, y, z, e0, e1;
    if (!parse_num(row[1], x) || !parse_num(row[2], y) ||
        !parse_num(row[3], z) || !parse_num(row[4], e0) ||
        !parse_num(row[5], e1))
      return std::nullopt;
    if (row[0] == "node") {
      positions.push_back({x, y, z});
      initial.push_back(e0);
      residual.push_back(e1);
    } else if (row[0] == "bs") {
      bs = Vec3{x, y, z};
    } else if (row[0] == "domain") {
      domain_corners.push_back({x, y, z});
    } else {
      return std::nullopt;
    }
  }
  if (!bs || domain_corners.size() != 2) return std::nullopt;

  Aabb box{domain_corners[0], domain_corners[0]};
  box.expand(domain_corners[1]);
  for (const Vec3& p : positions) box.expand(p);

  Network net(positions, initial, *bs, box);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const double drained = initial[i] - residual[i];
    if (drained > 0.0)
      net.node(static_cast<int>(i)).battery.consume(drained);
  }
  return net;
}

}  // namespace qlec
