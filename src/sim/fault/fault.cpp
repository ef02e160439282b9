#include "sim/fault/fault.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "obs/telemetry.hpp"

namespace qlec {

FaultInjector::FaultInjector(const FaultConfig& cfg, std::size_t n,
                             double death_line, std::uint64_t stream_seed)
    : hazards_(cfg.hazards),
      schedule_(cfg.plan.events),
      death_line_(death_line),
      rng_(stream_seed),
      cause_(n, DownCause::kNone),
      stun_until_(n, -1) {
  // Stable: same-round events keep their plan order.
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.round < b.round;
                   });
}

void FaultInjector::note(const char* kind, int node, int until_round) {
  if (telemetry_ == nullptr) return;
  telemetry_->metrics().counter("fault.transitions").inc();
  obs::Event e("fault", round_);
  e.with("kind", kind);
  if (node >= 0) e.with("node", node);
  if (until_round >= 0) e.with("until", until_round);
  telemetry_->emit(e);
}

void FaultInjector::crash(Network& net, int id, std::vector<int>& crashed) {
  SensorNode& node = net.node(id);
  if (!node.operational(death_line_) &&
      cause_[static_cast<std::size_t>(id)] != DownCause::kStunned)
    return;  // already crashed or battery-dead: crashing again is a no-op
  node.up = false;
  cause_[static_cast<std::size_t>(id)] = DownCause::kCrashed;
  crashed.push_back(id);
  ++crashes_;
  ++disruptions_round_;
  note("crash", id, -1);
}

void FaultInjector::stun(Network& net, int id, int until_round) {
  SensorNode& node = net.node(id);
  if (!node.operational(death_line_)) return;  // down or dead already
  node.up = false;
  cause_[static_cast<std::size_t>(id)] = DownCause::kStunned;
  stun_until_[static_cast<std::size_t>(id)] =
      std::max(stun_until_[static_cast<std::size_t>(id)], until_round);
  ++stuns_;
  ++disruptions_round_;
  note("stun", id, stun_until_[static_cast<std::size_t>(id)]);
}

void FaultInjector::fade(Network& net, int id, double fraction,
                         std::vector<Fade>& fades) {
  SensorNode& node = net.node(id);
  if (!node.operational(death_line_)) return;
  const double frac = std::clamp(fraction, 0.0, 1.0);
  const double joules = node.battery.residual() * frac;
  if (joules <= 0.0) return;
  fades.push_back(Fade{id, joules});
  ++fades_;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().counter("fault.transitions").inc();
    telemetry_->emit(obs::Event("fault", round_)
                         .with("kind", "battery-fade")
                         .with("node", id)
                         .with("joules", joules));
  }
}

void FaultInjector::apply_event(Network& net, const FaultEvent& e, int round,
                                std::vector<Fade>& fades,
                                std::vector<int>& crashed) {
  const int until = round + std::max(e.duration, 1);
  switch (e.kind) {
    case FaultKind::kCrash:
      if (e.node >= 0 && static_cast<std::size_t>(e.node) < net.size())
        crash(net, e.node, crashed);
      break;
    case FaultKind::kStun:
      if (e.node >= 0 && static_cast<std::size_t>(e.node) < net.size())
        stun(net, e.node, until);
      break;
    case FaultKind::kBlackout:
      ++blackouts_;
      ++disruptions_round_;
      note("blackout", -1, e.permanent ? -1 : until);
      for (const SensorNode& n : net.nodes()) {
        if (!e.region.contains(n.pos)) continue;
        if (e.permanent) {
          crash(net, n.id, crashed);
        } else {
          stun(net, n.id, until);
        }
      }
      break;
    case FaultKind::kLinkDegrade:
      degrade_until_ = std::max(degrade_until_, until);
      degrade_factor_ = std::clamp(e.severity, 0.0, 1.0);
      ++disruptions_round_;
      note("link-degrade", -1, degrade_until_);
      break;
    case FaultKind::kBsOutage:
      bs_down_until_ = std::max(bs_down_until_, until);
      ++disruptions_round_;
      note("bs-outage", -1, bs_down_until_);
      break;
    case FaultKind::kBatteryFade:
      if (e.node >= 0 && static_cast<std::size_t>(e.node) < net.size())
        fade(net, e.node, e.severity, fades);
      break;
  }
}

void FaultInjector::sample_hazards(Network& net, int round,
                                   std::vector<Fade>& fades,
                                   std::vector<int>& crashed) {
  if (!hazards_.any()) return;
  const int n = static_cast<int>(net.size());
  // Node-scoped hazards, in id order. Each draw happens iff its rate is
  // configured, so enabling one hazard never shifts another's stream.
  if (hazards_.crash_per_node > 0.0) {
    for (int id = 0; id < n; ++id) {
      if (!net.node(id).operational(death_line_)) continue;
      if (rng_.bernoulli(hazards_.crash_per_node)) crash(net, id, crashed);
    }
  }
  if (hazards_.stun_per_node > 0.0) {
    for (int id = 0; id < n; ++id) {
      if (!net.node(id).operational(death_line_)) continue;
      if (rng_.bernoulli(hazards_.stun_per_node))
        stun(net, id, round + std::max(hazards_.stun_rounds, 1));
    }
  }
  if (hazards_.fade_per_node > 0.0) {
    for (int id = 0; id < n; ++id) {
      if (!net.node(id).operational(death_line_)) continue;
      if (rng_.bernoulli(hazards_.fade_per_node))
        fade(net, id, hazards_.fade_fraction, fades);
    }
  }
  // Global episodes: one start-hazard draw per round while inactive.
  if (hazards_.degrade_episode > 0.0 && degrade_until_ <= round) {
    if (rng_.bernoulli(hazards_.degrade_episode)) {
      degrade_until_ = round + std::max(hazards_.degrade_rounds, 1);
      degrade_factor_ = std::clamp(hazards_.degrade_factor, 0.0, 1.0);
      ++disruptions_round_;
      note("link-degrade", -1, degrade_until_);
    }
  }
  if (hazards_.bs_outage > 0.0 && bs_down_until_ <= round) {
    if (rng_.bernoulli(hazards_.bs_outage)) {
      bs_down_until_ = round + std::max(hazards_.bs_outage_rounds, 1);
      ++disruptions_round_;
      note("bs-outage", -1, bs_down_until_);
    }
  }
}

void FaultInjector::begin_round(Network& net, int round,
                                std::vector<Fade>& fades,
                                std::vector<int>& crashed) {
  fades.clear();
  crashed.clear();
  round_ = round;
  disruptions_round_ = 0;

  // Wake stunned nodes whose sleep window has expired. Crashed nodes are
  // never woken — the auditor enforces that they stay down.
  for (std::size_t i = 0; i < cause_.size(); ++i) {
    if (cause_[i] == DownCause::kStunned && stun_until_[i] <= round) {
      cause_[i] = DownCause::kNone;
      stun_until_[i] = -1;
      net.node(static_cast<int>(i)).up = true;
      note("wake", static_cast<int>(i), -1);
    }
  }

  // Scheduled events for this round, in plan order. Events scheduled for
  // rounds the run never reached (or before round 0) are skipped silently.
  while (next_event_ < schedule_.size() &&
         schedule_[next_event_].round <= round) {
    const FaultEvent& e = schedule_[next_event_];
    if (e.round == round) apply_event(net, e, round, fades, crashed);
    ++next_event_;
  }

  sample_hazards(net, round, fades, crashed);

  if (!bs_up()) ++bs_outage_rounds_;
  if (link_factor() < 1.0) ++degraded_rounds_;
}

}  // namespace qlec
