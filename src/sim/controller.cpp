#include "sim/controller.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/leach.hpp"

namespace qlec {

void PassthroughController::select_heads(const Network& net, int round,
                                         double death_line, Rng& rng,
                                         std::vector<int>& heads) {
  heads.clear();
  int best_fallback = kBaseStationId;
  double best_energy = -1.0;
  for (const SensorNode& n : net.nodes()) {
    if (!n.operational(death_line)) continue;
    if (n.battery.residual() > best_energy) {
      best_energy = n.battery.residual();
      best_fallback = n.id;
    }
    if (!leach_eligible(n.last_head_round, round, p_)) continue;
    if (rng.uniform01() < leach_threshold(p_, round)) heads.push_back(n.id);
  }
  if (heads.empty() && best_fallback != kBaseStationId)
    heads.push_back(best_fallback);
}

std::size_t RlLiteController::state_bucket(const Network& net) {
  const double init = net.total_initial_energy();
  const double frac =
      init > 0.0 ? net.total_residual_energy() / init : 0.0;
  const auto b = static_cast<long long>(frac * static_cast<double>(kStates));
  return static_cast<std::size_t>(
      std::clamp<long long>(b, 0, static_cast<long long>(kStates) - 1));
}

void RlLiteController::select_heads(const Network& net, int round,
                                    double death_line, Rng& rng,
                                    std::vector<int>& heads) {
  (void)round;
  heads.clear();
  const std::size_t s = state_bucket(net);

  // Epsilon-greedy over the k-multiplier actions; the explore draw comes
  // first so the stream position is identical whichever branch wins.
  std::size_t a;
  if (rng.uniform01() < opt_.epsilon) {
    a = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::uint64_t>(kMultipliers.size())));
  } else {
    a = 0;
    for (std::size_t i = 1; i < kMultipliers.size(); ++i)
      if (q_[s][i] > q_[s][a]) a = i;  // strict >: ties keep the lower index
  }

  const auto want = static_cast<std::size_t>(std::max<long long>(
      1, std::llround(static_cast<double>(base_k_) * kMultipliers[a])));

  // Centralized selection: the `want` operational nodes with the most
  // residual energy (ties to the lower id), reported in ascending id order.
  std::vector<int> alive = net.alive_ids(death_line);
  std::erase_if(alive, [&](int id) { return !net.node(id).up; });
  std::sort(alive.begin(), alive.end(), [&](int lhs, int rhs) {
    const double el = net.node(lhs).battery.residual();
    const double er = net.node(rhs).battery.residual();
    if (el != er) return el > er;
    return lhs < rhs;
  });
  if (alive.size() > want) alive.resize(want);
  std::sort(alive.begin(), alive.end());
  heads = std::move(alive);

  pending_ = true;
  state_ = s;
  action_ = a;
  residual_before_ = net.total_residual_energy();
}

void RlLiteController::on_round_end(const Network& net, int round) {
  (void)round;
  if (!pending_) return;
  pending_ = false;
  const double init = net.total_initial_energy();
  const double drop = residual_before_ - net.total_residual_energy();
  // Negative normalized energy burn, scaled so one round's signal is O(1)
  // against the Q-values' unit initialization.
  const double reward = init > 0.0 ? -100.0 * drop / init : 0.0;
  const std::size_t s2 = state_bucket(net);
  const double best_next =
      *std::max_element(q_[s2].begin(), q_[s2].end());
  double& q = q_[state_][action_];
  q += opt_.alpha * (reward + opt_.gamma * best_next - q);
  ++updates_;
}

std::unique_ptr<Controller> make_controller(const ControllerOptions& opt,
                                            std::size_t base_k, double p) {
  if (opt.kind == ControllerKind::kPassthrough)
    return std::make_unique<PassthroughController>(p);
  return std::make_unique<RlLiteController>(base_k, opt);
}

}  // namespace qlec
