// Helpers shared by the baseline protocol adapters: nearest-head member
// assignment, the HELLO control-energy charge (applied uniformly across
// protocols so the Fig. 3(b) comparison is apples-to-apples), and the
// member-routing base the cluster-mode adapters derive from.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "energy/radio_model.hpp"
#include "geom/spatial_grid.hpp"
#include "net/network.hpp"
#include "sim/protocol.hpp"
#include "util/simd.hpp"

namespace qlec::detail {

/// Nearest alive head to node `id`: the first head in `heads` order with
/// the strictly smallest distance among the operational ones, or
/// kBaseStationId when none is operational.
inline int nearest_alive_head(const Network& net,
                              const std::vector<int>& heads, int id,
                              double death_line) {
  int nearest = kBaseStationId;
  double best = std::numeric_limits<double>::infinity();
  for (const int h : heads) {
    if (!net.node(h).operational(death_line)) continue;
    const double d = net.dist(id, h);
    if (d < best) {
      best = d;
      nearest = h;
    }
  }
  return nearest;
}

/// Reference O(N*k) implementation of nearest-alive-head assignment:
/// assignment[i] = nearest_alive_head(net, heads, i, death_line). Kept as
/// the equivalence oracle for the grid-backed path.
inline std::vector<int> assign_nearest_head_brute(
    const Network& net, const std::vector<int>& heads, double death_line) {
  std::vector<int> assignment(net.size(), kBaseStationId);
  for (const SensorNode& n : net.nodes())
    assignment[static_cast<std::size_t>(n.id)] =
        nearest_alive_head(net, heads, n.id, death_line);
  return assignment;
}

/// Grid-backed nearest-alive-head assignment, exactly equivalent to
/// assign_nearest_head_brute (same winner including distance ties). Per
/// node: an expanding-ring grid lookup yields an upper bound D on the
/// nearest-head distance, a radius query slightly inflated past D collects
/// every head whose rounded sqrt distance could equal the minimum, and the
/// brute-force comparison loop is replayed over those candidates in head
/// order — so the argmin and its tie-break are decided by the identical
/// float comparisons, while only O(candidates) instead of O(k) heads are
/// examined. Small head sets instead take a SIMD scan: one dist_to_point +
/// argmin over an alive-head SoA per node, whose first-wins strict-< lane
/// merge reproduces the brute loop's winner and tie-break exactly.
inline std::vector<int> assign_nearest_head(const Network& net,
                                            const std::vector<int>& heads,
                                            double death_line) {
  // Alive heads, preserving `heads` order (the tie-break order).
  std::vector<int> alive;
  alive.reserve(heads.size());
  for (const int h : heads)
    if (net.node(h).operational(death_line)) alive.push_back(h);

  const std::size_t n = net.size();
  std::vector<int> assignment(n, kBaseStationId);
  if (alive.empty()) return assignment;

  constexpr std::size_t kBruteThreshold = 16;
  if (alive.size() < kBruteThreshold) {
    // SIMD small-set path. Equivalent to the brute scan: dead heads are
    // pre-filtered in `heads` order (skipping them never updates `best`),
    // dist_to_point matches net.dist bit-for-bit, and argmin keeps the
    // first strict minimum exactly like the `d < best` replay.
    double xs[kBruteThreshold], ys[kBruteThreshold], zs[kBruteThreshold];
    const std::size_t k = alive.size();
    for (std::size_t c = 0; c < k; ++c) {
      const Vec3& p = net.node(alive[c]).pos;
      xs[c] = p.x;
      ys[c] = p.y;
      zs[c] = p.z;
    }
    const simd::Kernels& kr = simd::kernels();
    double dbuf[kBruteThreshold];
    for (std::size_t id = 0; id < n; ++id) {
      const Vec3& p = net.node(static_cast<int>(id)).pos;
      kr.dist_to_point(xs, ys, zs, k, p.x, p.y, p.z, dbuf);
      const std::size_t win = kr.argmin(dbuf, k);
      if (win != simd::npos) assignment[id] = alive[win];
    }
    return assignment;
  }

  std::vector<Vec3> head_pos;
  head_pos.reserve(alive.size());
  for (const int h : alive) head_pos.push_back(net.node(h).pos);

  // ~1 head per cell: typical nearest-head distance in a volume V with k
  // heads is (V/k)^(1/3), so queries touch O(1) cells.
  const double volume = net.domain().volume();
  const double cell =
      volume > 0.0
          ? std::cbrt(volume / static_cast<double>(alive.size()))
          : 1.0;
  const SpatialGrid grid(head_pos, cell);

  std::vector<std::size_t> cands;
  for (std::size_t id = 0; id < n; ++id) {
    const Vec3& p = net.node(static_cast<int>(id)).pos;
    const std::size_t near = grid.nearest(p);
    // Upper bound on the true minimum, computed with the same distance()
    // expression as the brute loop; inflate so sqrt-rounding ties survive
    // the grid's squared-distance cut.
    const double d_near = distance(p, head_pos[near]);
    grid.query_into(p, d_near + 1e-9 * (d_near + 1.0), cands);
    std::sort(cands.begin(), cands.end());
    double best = std::numeric_limits<double>::infinity();
    for (const std::size_t c : cands) {
      const double d = distance(p, head_pos[c]);
      if (d < best) {
        best = d;
        assignment[id] = alive[c];
      }
    }
  }
  return assignment;
}

/// Charges each head one HELLO broadcast over `radius` and each alive
/// member one HELLO reception (members hear their own head announce).
inline void charge_hello(Network& net, const std::vector<int>& heads,
                         const std::vector<int>& assignment,
                         const RadioModel& radio, double hello_bits,
                         double radius, double death_line,
                         EnergyLedger& ledger) {
  if (hello_bits <= 0.0) return;
  for (const int h : heads) {
    ledger.charge(EnergyUse::kControl,
                  net.node(h).battery.consume(
                      radio.tx_energy(hello_bits, radius)),
                  h);
  }
  for (const SensorNode& n : net.nodes()) {
    const int a = assignment[static_cast<std::size_t>(n.id)];
    if (a == kBaseStationId || n.is_head) continue;
    if (!n.operational(death_line)) continue;
    ledger.charge(EnergyUse::kControl,
                  net.node(n.id).battery.consume(
                      radio.rx_energy(hello_bits)),
                  n.id);
  }
}

}  // namespace qlec::detail

namespace qlec {

/// Member-routing half of every cluster-mode adapter (LEACH, DEEC,
/// TL-LEACH, HEED, iDEEC, k-means, FCM, Q-LEACH, REECH-ME, LEACH-RLC):
/// the adapter elects heads in on_round_start and ends it with
/// settle_round(); route() sends a member to its assigned head while that
/// head is operational, else to the nearest operational head.
class AssignedHeadProtocol : public ClusteringProtocol {
 public:
  int route(const Network& net, int src, double bits, Rng& rng) final {
    (void)bits;
    (void)rng;
    const int a = assignment_.at(static_cast<std::size_t>(src));
    if (a != kBaseStationId && net.node(a).operational(death_line_))
      return a;
    // Assigned head went down mid-round: rejoin the nearest live head.
    return detail::nearest_alive_head(net, net.head_ids(), src, death_line_);
  }

  /// This round's member -> head map (kBaseStationId: no head).
  const std::vector<int>& assignment() const noexcept { return assignment_; }

 protected:
  AssignedHeadProtocol(double death_line, RadioModel radio,
                       double hello_bits)
      : death_line_(death_line), radio_(radio), hello_bits_(hello_bits) {}

  /// Ends the election: stores `assignment` and charges the HELLO exchange
  /// of `heads` over `hello_radius`.
  void settle_round(Network& net, const std::vector<int>& heads,
                    std::vector<int> assignment, double hello_radius,
                    EnergyLedger& ledger) {
    assignment_ = std::move(assignment);
    detail::charge_hello(net, heads, assignment_, radio_, hello_bits_,
                         hello_radius, death_line_, ledger);
  }
  /// Same, with every member assigned to its nearest alive head.
  void settle_round(Network& net, const std::vector<int>& heads,
                    double hello_radius, EnergyLedger& ledger) {
    settle_round(net, heads,
                 detail::assign_nearest_head(net, heads, death_line_),
                 hello_radius, ledger);
  }

  const double death_line_;

 private:
  RadioModel radio_;
  double hello_bits_;
  std::vector<int> assignment_;
};

}  // namespace qlec
