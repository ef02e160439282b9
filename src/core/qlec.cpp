#include "core/qlec.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace qlec {

QlecProtocol::QlecProtocol(const Network& net, QlecParams params,
                           RadioModel radio, double death_line)
    : params_(params),
      radio_(radio),
      death_line_(death_line),
      router_(params, radio, net.size()) {
  // Regime-appropriate uplink normalization (see params.hpp): scale the
  // uplink y by the amplifier energy at the deployment's mean BS distance.
  if (params_.y_scale_bs <= 0.0 && net.size() > 0) {
    params_.y_scale_bs = radio_.amp_energy(1.0, net.mean_dist_to_bs());
    router_ = QlecRouter(params_, radio_, net.size());
  }
  const double m_side = net.cube_side();
  if (params_.force_k > 0) {
    k_opt_ = static_cast<std::size_t>(params_.force_k);
  } else {
    k_opt_ = optimal_cluster_count_rounded(net.size(), m_side,
                                           net.mean_dist_to_bs(),
                                           radio_.params());
  }
  k_opt_ = std::clamp<std::size_t>(k_opt_, 1, std::max<std::size_t>(net.size(), 1));
  d_c_ = cluster_radius(m_side, static_cast<double>(k_opt_));
}

void QlecProtocol::on_round_start(Network& net, int round, Rng& rng,
                                  EnergyLedger& ledger) {
  cur_round_ = round;
  ImprovedDeecConfig cfg;
  cfg.p_opt = static_cast<double>(k_opt_) /
              static_cast<double>(std::max<std::size_t>(net.size(), 1));
  cfg.total_rounds = params_.total_rounds;
  cfg.coverage_radius = d_c_;
  cfg.use_energy_threshold = params_.use_energy_threshold;
  cfg.reduce_redundancy = params_.reduce_redundancy;
  cfg.top_up_to_k = params_.top_up_to_k;
  heads_ = improved_deec_elect(net, cfg, round, rng, death_line_,
                               &last_stats_);

  // Control plane: each surviving head broadcasts its HELLO across d_c, and
  // every alive node inside the coverage ball spends receive energy on it.
  if (params_.hello_bits > 0.0 && !heads_.empty()) charge_hello(net, ledger);

  router_.begin_round(heads_);
  // Seed each head's V with one model-based Eq. 15 backup (known y, prior
  // P estimate). Without this, never-elected heads keep the optimistic
  // V = 0 of initialization and members flood the freshest head every
  // round regardless of its uplink cost.
  for (const int h : heads_)
    router_.update_head_value(net, h, uplink_bits_hint_);

  if (telemetry_ != nullptr) {
    const ElectionStats& s = last_stats_;
    obs::MetricsRegistry& m = telemetry_->metrics();
    m.counter("qlec.election.elected").inc(s.elected);
    m.counter("qlec.election.pruned").inc(s.pruned);
    m.counter("qlec.election.drafted").inc(s.drafted);
    if (s.used_fallback) m.counter("qlec.election.fallbacks").inc();
    m.gauge("qlec.k_opt").set(static_cast<double>(k_opt_));
    m.gauge("qlec.router.q_evals")
        .set(static_cast<double>(router_.q_evaluations()));
    m.gauge("qlec.router.max_v_delta").set(router_.max_v_delta_this_round());
    telemetry_->emit(obs::Event("election_stats", round)
                         .with("alive", s.alive)
                         .with("eligible", s.eligible)
                         .with("elected", s.elected)
                         .with("pruned", s.pruned)
                         .with("drafted", s.drafted)
                         .with("final_heads", s.final_heads)
                         .with("k_opt", k_opt_)
                         .with("used_fallback", s.used_fallback));
    // Algorithm 3 fired: the redundancy pass actually removed heads.
    if (s.pruned > 0)
      telemetry_->emit(obs::Event("prune", round)
                           .with("pruned", s.pruned)
                           .with("final_heads", s.final_heads));
  }
}

void QlecProtocol::charge_hello(Network& net, EnergyLedger& ledger) {
  // Receiver-centric form of the head-major HELLO walk ("for each head:
  // charge its tx, then an rx to every operational node it covers").
  // Equivalence: the head-major loop touches node j's battery exactly for
  // the covering heads h (distance2(h, j) <= d_c², a bitwise-symmetric
  // predicate), in head-list order: its own tx when h == j, else an rx
  // gated on j being operational *at that moment*. operational() reads only
  // j's own battery, so each node's charge sequence is independent of every
  // other node's — replaying it per node in id order leaves every battery
  // bit-identical to the head-major walk. Coverage tests every head
  // directly: k is k_opt-sized, and a scan of the head list costs less
  // than a spatial-grid query per node.
  std::vector<Vec3> head_pos;
  head_pos.reserve(heads_.size());
  for (const int h : heads_) head_pos.push_back(net.node(h).pos);
  const double r2 = d_c_ * d_c_;
  const double tx = radio_.tx_energy(params_.hello_bits, d_c_);
  const double rx = radio_.rx_energy(params_.hello_bits);
  const int n = static_cast<int>(net.size());
  for (int id = 0; id < n; ++id) {
    SensorNode& node = net.node(id);
    bool self_txed = false;
    for (std::size_t slot = 0; slot < heads_.size(); ++slot) {
      if (!(distance2(head_pos[slot], node.pos) <= r2)) continue;
      if (heads_[slot] == id) {
        ledger.charge(EnergyUse::kControl, node.battery.consume(tx), id);
        self_txed = true;
      } else if (node.operational(death_line_)) {
        ledger.charge(EnergyUse::kControl, node.battery.consume(rx), id);
      }
    }
    // A head's broadcast tx is unconditional in the head-major walk even if
    // a degenerate radius keeps it out of its own coverage.
    if (node.is_head && !self_txed)
      ledger.charge(EnergyUse::kControl, node.battery.consume(tx), id);
  }
}

int QlecProtocol::route(const Network& net, int src, double bits, Rng& rng) {
  uplink_bits_hint_ = bits;
  return router_.choose_target(net, src, bits, rng);
}

void QlecProtocol::on_tx_result(const Network& net, int src, int target,
                                bool success) {
  (void)net;
  router_.record_outcome(src, target, success);
}

void QlecProtocol::on_uplink_result(const Network& net, int head,
                                    bool success) {
  router_.record_outcome(head, kBaseStationId, success);
  router_.update_head_value(net, head, uplink_bits_hint_);
  if (telemetry_ != nullptr) {
    telemetry_->metrics().counter("qlec.q_updates").inc();
    if (telemetry_->per_packet_events())
      telemetry_->emit(obs::Event("q_update", cur_round_)
                           .with("head", head)
                           .with("success", success)
                           .with("v", router_.v(head)));
  }
}

}  // namespace qlec
