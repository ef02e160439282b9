#include "sim/protocols/fcm_protocol.hpp"

#include <cmath>

#include "cluster/fcm.hpp"
#include "core/optimal_k.hpp"
#include "sim/protocols/common.hpp"

namespace qlec {

FcmProtocol::FcmProtocol(std::size_t k, int hierarchy_levels,
                         double death_line, RadioModel radio,
                         double hello_bits)
    : k_(k == 0 ? 1 : k),
      levels_(hierarchy_levels < 1 ? 1 : hierarchy_levels),
      death_line_(death_line),
      radio_(radio),
      hello_bits_(hello_bits) {}

void FcmProtocol::on_round_start(Network& net, int round, Rng& rng,
                                 EnergyLedger& ledger) {
  (void)round;
  net.reset_heads();
  const std::vector<int> alive = net.alive_ids(death_line_);
  if (alive.empty()) {
    assignment_.assign(net.size(), kBaseStationId);
    hierarchy_ = {};
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
  assignment_.assign(net.size(), kBaseStationId);
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
    assignment_[static_cast<std::size_t>(alive[i])] = best_head;
  }

  hierarchy_ = build_fcm_hierarchy(net, heads, levels_);

  const double m_side = std::cbrt(std::max(net.domain().volume(), 0.0));
  detail::charge_hello(net, heads, assignment_, radio_, hello_bits_,
                       cluster_radius(m_side, static_cast<double>(k_)),
                       death_line_, ledger);
}

int FcmProtocol::route(const Network& net, int src, double bits, Rng& rng) {
  (void)bits;
  (void)rng;
  const int a = assignment_.at(static_cast<std::size_t>(src));
  if (a != kBaseStationId && net.node(a).operational(death_line_))
    return a;
  const std::vector<int> fresh =
      detail::assign_nearest_head(net, net.head_ids(), death_line_);
  return fresh.at(static_cast<std::size_t>(src));
}

int FcmProtocol::uplink_target(const Network& net, int head, Rng& rng) {
  (void)rng;
  const int next = fcm_next_hop(net, hierarchy_, head);
  if (next == kBaseStationId || net.node(next).operational(death_line_))
    return next;
  return kBaseStationId;  // inner relay died: bail out directly
}

}  // namespace qlec
