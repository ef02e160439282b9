#include "sim/protocols/fcm_protocol.hpp"

#include <utility>

#include "cluster/fcm.hpp"
#include "core/optimal_k.hpp"

namespace qlec {

FcmProtocol::FcmProtocol(std::size_t k, int hierarchy_levels,
                         double death_line, RadioModel radio,
                         double hello_bits)
    : AssignedHeadProtocol(death_line, radio, hello_bits),
      k_(k == 0 ? 1 : k),
      levels_(hierarchy_levels < 1 ? 1 : hierarchy_levels) {}

void FcmProtocol::on_round_start(Network& net, int round, Rng& rng,
                                 EnergyLedger& ledger) {
  net.reset_heads();
  const double hello_radius =
      cluster_radius(net.cube_side(), static_cast<double>(k_));
  const std::vector<int> alive = net.alive_ids(death_line_);
  if (alive.empty()) {
    hierarchy_ = {};
    settle_round(net, {}, hello_radius, ledger);
    return;
  }
  std::vector<Vec3> pts;
  std::vector<double> residual;
  std::vector<double> initial;
  pts.reserve(alive.size());
  for (const int id : alive) {
    pts.push_back(net.node(id).pos);
    residual.push_back(net.node(id).battery.residual());
    initial.push_back(net.node(id).battery.initial());
  }

  const FcmResult fcm = fuzzy_cmeans(pts, k_, rng);
  const std::vector<std::size_t> head_idx =
      fcm_select_heads(fcm, residual, initial);

  std::vector<int> heads;
  heads.reserve(head_idx.size());
  for (const std::size_t i : head_idx) {
    const int id = alive[i];
    net.node(id).is_head = true;
    net.node(id).last_head_round = round;
    heads.push_back(id);
  }

  // Member assignment: argmax membership among clusters whose head is up
  // (hard assignment of the fuzzy partition).
  std::vector<int> assignment(net.size(), kBaseStationId);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    const auto& mem = fcm.membership[i];
    int best_head = kBaseStationId;
    double best_u = -1.0;
    for (std::size_t c = 0; c < heads.size(); ++c) {
      if (mem[c] > best_u) {
        best_u = mem[c];
        best_head = heads[c];
      }
    }
    assignment[static_cast<std::size_t>(alive[i])] = best_head;
  }

  hierarchy_ = build_fcm_hierarchy(net, heads, levels_);
  settle_round(net, heads, std::move(assignment), hello_radius, ledger);
}

int FcmProtocol::uplink_target(const Network& net, int head, Rng& rng) {
  (void)rng;
  const int next = fcm_next_hop(net, hierarchy_, head);
  if (next == kBaseStationId || net.node(next).operational(death_line_))
    return next;
  return kBaseStationId;  // inner relay died: bail out directly
}

}  // namespace qlec
