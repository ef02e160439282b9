#include "core/qlec_routing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/simd.hpp"

namespace qlec {

double TwoOutcomeTransition::q_value(double gamma) const noexcept {
  const double p = p_success;
  const double rt = p * reward_success + (1.0 - p) * reward_failure;
  return rt + gamma * (p * v_success + (1.0 - p) * v_failure);
}

QlecRouter::QlecRouter(QlecParams params, RadioModel radio,
                       std::size_t n_nodes)
    : params_(params), radio_(radio), v_(n_nodes, 0.0) {}

void QlecRouter::begin_round(std::vector<int> heads) {
  heads_ = std::move(heads);
  max_v_delta_ = 0.0;
  round_lanes_ = false;
}

void QlecRouter::build_lanes(const Network& net, int src) {
  actions_.clear();
  hx_.clear();
  hy_.clear();
  hz_.clear();
  for (const int h : heads_) {
    if (h == src) continue;
    const Vec3& p = net.node(h).pos;
    if (static_cast<std::size_t>(h) >= v_.size())
      throw std::out_of_range("QlecRouter: head id has no V slot");
    actions_.push_back(h);
    hx_.push_back(p.x);
    hy_.push_back(p.y);
    hz_.push_back(p.z);
  }
  actions_.push_back(kBaseStationId);
}

double QlecRouter::x_of(const Network& net, int node_or_bs) const {
  if (node_or_bs == kBaseStationId) return params_.x_bs;
  const SensorNode& n = net.node(node_or_bs);
  const double scale = params_.x_scale > 0.0 ? params_.x_scale
                                             : n.battery.initial();
  return scale > 0.0 ? n.battery.residual() / scale : 0.0;
}

double QlecRouter::y_of(const Network& net, int src, int target,
                        double bits) const {
  const double d = net.dist(src, target);
  const double raw = radio_.amp_energy(bits, d);
  const double scale = y_scale(target, bits);
  return scale > 0.0 ? raw / scale : raw;
}

double QlecRouter::y_scale(int target, double bits) const {
  if (target == kBaseStationId)
    return params_.y_scale_bs > 0.0 ? bits * params_.y_scale_bs
                                    : radio_.amp_energy(bits, radio_.d0());
  return params_.y_scale > 0.0 ? params_.y_scale
                               : radio_.amp_energy(bits, radio_.d0());
}

double QlecRouter::reward_success(const Network& net, int src, int target,
                                  double bits) const {
  // Eq. 17 for a head target, Eq. 19 (extra -l penalty) for the BS.
  const double base = -params_.g +
                      params_.alpha1 * (x_of(net, src) + x_of(net, target)) -
                      params_.alpha2 * y_of(net, src, target, bits);
  return target == kBaseStationId ? base - params_.l : base;
}

double QlecRouter::reward_failure(const Network& net, int src, int target,
                                  double bits) const {
  // Eq. 20: transmission attempted but not acknowledged.
  return -params_.g + params_.beta1 * x_of(net, src) -
         params_.beta2 * y_of(net, src, target, bits);
}

double& QlecRouter::v_slot(int node_or_bs) {
  if (node_or_bs == kBaseStationId) return v_bs_;
  return v_.at(static_cast<std::size_t>(node_or_bs));
}

double QlecRouter::v(int node_or_bs) const {
  if (node_or_bs == kBaseStationId) return v_bs_;
  return v_.at(static_cast<std::size_t>(node_or_bs));
}

double QlecRouter::q_value(const Network& net, int src, int target,
                           double bits) const {
  const TwoOutcomeTransition t{
      .p_success = estimator_.estimate(src, target),
      .reward_success = reward_success(net, src, target, bits),
      .reward_failure = reward_failure(net, src, target, bits),
      .v_success = v(target),
      .v_failure = v(src),
  };
  return t.q_value(params_.gamma);
}

int QlecRouter::choose_target(const Network& net, int src, double bits,
                              Rng& rng) {
  // Action set A(b_i): every current head except itself, plus the BS. For
  // a sender outside heads_ that list and the head positions are the same
  // all round.
  if (std::find(heads_.begin(), heads_.end(), src) != heads_.end()) {
    build_lanes(net, src);
    round_lanes_ = false;
  } else if (!round_lanes_) {
    build_lanes(net, src);
    round_lanes_ = true;
  }
  int best = kBaseStationId;
  double best_q = -std::numeric_limits<double>::infinity();

  // Inner Q loop, with the per-action-invariant terms hoisted. Every
  // arithmetic expression below matches q_value()/reward_success()/
  // reward_failure() operation for operation, so the result is
  // bit-identical to calling q_value() per action.
  const double x_src = x_of(net, src);
  const double v_src_now = v(src);
  const std::size_t kh = actions_.size() - 1;  // head actions; BS is last
  constexpr std::size_t kSimdThreshold = 8;
  if (kh >= kSimdThreshold) {
    // SoA lanes in actions_ order, one q_scan + argmax over the head
    // actions, then the BS action scalar — the exact inline expressions of
    // the else branch, so best/best_q land bit-identically (the simd oracle
    // suite pins every kernel below to scalar semantics).
    qs_p_.resize(kh + 1);  // the BS action's p rides in the last slot
    qs_y_.resize(kh);
    qs_x_.resize(kh);
    qs_v_.resize(kh);
    qs_q_.resize(kh);
    const simd::Kernels& kr = simd::kernels();
    // The y lane: y_of's distance -> Eq. 18 -> head-normalizer chain.
    const Vec3& sp = net.node(src).pos;
    kr.dist_to_point(hx_.data(), hy_.data(), hz_.data(), kh, sp.x, sp.y, sp.z,
                     qs_y_.data());
    const RadioParams& rp = radio_.params();
    kr.amp_energy(qs_y_.data(), kh, bits, rp.eps_fs, rp.eps_mp, radio_.d0(),
                  qs_q_.data());
    const double scale = y_scale(actions_.front(), bits);
    if (scale > 0.0) {
      kr.scale_div(qs_q_.data(), kh, scale, qs_y_.data());
    } else {
      qs_y_.swap(qs_q_);
    }
    estimator_.fill_estimates(src, actions_.data(), kh + 1, qs_p_.data());
    // x_of() and v() per head, read directly: the lane build checked each
    // id against net.node() and v_.
    const SensorNode* nodes = net.nodes().data();
    const double x_scale = params_.x_scale;
    for (std::size_t i = 0; i < kh; ++i) {
      const auto a = static_cast<std::size_t>(actions_[i]);
      const Battery& b = nodes[a].battery;
      const double scale_a = x_scale > 0.0 ? x_scale : b.initial();
      qs_x_[i] = scale_a > 0.0 ? b.residual() / scale_a : 0.0;
      qs_v_[i] = v_[a];
    }
    const simd::QScanConsts c{.x_src = x_src,
                              .v_src = v_src_now,
                              .g = params_.g,
                              .alpha1 = params_.alpha1,
                              .alpha2 = params_.alpha2,
                              .beta1 = params_.beta1,
                              .beta2 = params_.beta2,
                              .gamma = params_.gamma};
    kr.q_scan(qs_p_.data(), qs_y_.data(), qs_x_.data(), qs_v_.data(), kh, c,
              qs_q_.data());
    const std::size_t am = kr.argmax(qs_q_.data(), kh);
    if (am != simd::npos) {
      best_q = qs_q_[am];
      best = actions_[am];
    }
    {  // the BS action, exactly as the scalar loop's last iteration
      const double y = y_of(net, src, kBaseStationId, bits);
      double r_s = -params_.g +
                   params_.alpha1 * (x_src + x_of(net, kBaseStationId)) -
                   params_.alpha2 * y;
      r_s -= params_.l;  // Eq. 19's direct-BS penalty
      const double r_f =
          -params_.g + params_.beta1 * x_src - params_.beta2 * y;
      const TwoOutcomeTransition t{
          .p_success = qs_p_[kh],
          .reward_success = r_s,
          .reward_failure = r_f,
          .v_success = v(kBaseStationId),
          .v_failure = v_src_now,
      };
      const double q = t.q_value(params_.gamma);
      if (q > best_q) {
        best_q = q;
        best = kBaseStationId;
      }
    }
    q_evals_ += actions_.size();
  } else {
    for (const int a : actions_) {
      const double y = y_of(net, src, a, bits);
      double r_s = -params_.g + params_.alpha1 * (x_src + x_of(net, a)) -
                   params_.alpha2 * y;
      if (a == kBaseStationId) r_s -= params_.l;  // Eq. 19's direct-BS penalty
      const double r_f =
          -params_.g + params_.beta1 * x_src - params_.beta2 * y;
      const TwoOutcomeTransition t{
          .p_success = estimator_.estimate(src, a),
          .reward_success = r_s,
          .reward_failure = r_f,
          .v_success = v(a),
          .v_failure = v_src_now,
      };
      const double q = t.q_value(params_.gamma);
      ++q_evals_;
      if (q > best_q) {
        best_q = q;
        best = a;
      }
    }
  }

  // Algorithm 4 line 2: V*(b_i) <- max_a Q*(b_i, a).
  double& v_src = v_slot(src);
  max_v_delta_ = std::max(max_v_delta_, std::fabs(best_q - v_src));
  v_src = best_q;

  if (params_.epsilon > 0.0 && rng.bernoulli(params_.epsilon))
    return actions_[rng.uniform_int(actions_.size())];
  return best;
}

void QlecRouter::record_outcome(int from, int to, bool success) {
  estimator_.record(from, to, success);
}

void QlecRouter::update_head_value(const Network& net, int head,
                                   double bits) {
  // Algorithm 1 line 15: V*(h_j) = Q*(h_j, a_BS)
  //   = R_t + gamma (P V*(h_BS) + (1-P) V*(h_j)).
  // The head's uplink carries no direct-to-BS penalty — uplinking the fused
  // data IS its job (Eq. 19's l penalizes members bypassing the hierarchy).
  const double p = estimator_.estimate(head, kBaseStationId);
  const double y = y_of(net, head, kBaseStationId, bits);
  const double r_s = -params_.g +
                     params_.alpha1 * (x_of(net, head) + params_.x_bs) -
                     params_.alpha2 * y;
  const double r_f =
      -params_.g + params_.beta1 * x_of(net, head) - params_.beta2 * y;
  const double rt = p * r_s + (1.0 - p) * r_f;
  double& v_head = v_slot(head);
  const double next =
      rt + params_.gamma * (p * v_bs_ + (1.0 - p) * v_head);
  max_v_delta_ = std::max(max_v_delta_, std::fabs(next - v_head));
  v_head = next;
  ++q_evals_;
}

}  // namespace qlec
