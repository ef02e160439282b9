#include "sim/mac/engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace qlec {

const char* mac_loss_cause_name(MacLossCause c) noexcept {
  switch (c) {
    case MacLossCause::kNone: return "none";
    case MacLossCause::kCollision: return "collision";
    case MacLossCause::kChannel: return "channel";
    case MacLossCause::kOverflow: return "overflow";
    case MacLossCause::kTargetDown: return "target_down";
    case MacLossCause::kSenderDown: return "sender_down";
  }
  return "?";
}

MacCounters& MacCounters::operator+=(const MacCounters& o) noexcept {
  tx_attempts += o.tx_attempts;
  retransmits += o.retransmits;
  collisions += o.collisions;
  capture_wins += o.capture_wins;
  cca_busy += o.cca_busy;
  backoff_subslots += o.backoff_subslots;
  subslots += o.subslots;
  drop_collision += o.drop_collision;
  drop_channel += o.drop_channel;
  drop_overflow += o.drop_overflow;
  drop_target_down += o.drop_target_down;
  drop_sender_down += o.drop_sender_down;
  return *this;
}

MacCounters MacCounters::minus(const MacCounters& o) const noexcept {
  MacCounters d;
  d.tx_attempts = tx_attempts - o.tx_attempts;
  d.retransmits = retransmits - o.retransmits;
  d.collisions = collisions - o.collisions;
  d.capture_wins = capture_wins - o.capture_wins;
  d.cca_busy = cca_busy - o.cca_busy;
  d.backoff_subslots = backoff_subslots - o.backoff_subslots;
  d.subslots = subslots - o.subslots;
  d.drop_collision = drop_collision - o.drop_collision;
  d.drop_channel = drop_channel - o.drop_channel;
  d.drop_overflow = drop_overflow - o.drop_overflow;
  d.drop_target_down = drop_target_down - o.drop_target_down;
  d.drop_sender_down = drop_sender_down - o.drop_sender_down;
  return d;
}

namespace {

/// Received-power proxy for the capture comparison: inverse-square with a
/// 1 m near-field clamp. Only ratios matter, so units are arbitrary.
double rx_power(const Vec3& tx, const Vec3& rx) noexcept {
  const double d = std::max(distance(tx, rx), 1.0);
  return 1.0 / (d * d);
}

/// Carrier-sense reach `r` > 0: which senders are heard at a point.
/// Membership is exactly that of a SpatialGrid with cell side `r` queried
/// at radius `r`: the distance test, and the sender's cell inside the query
/// box [cell(c - r), cell(c + r)]. The distance test comes first; it
/// rejects nearly every candidate, and the box only decides float edge
/// cases.
class Reach {
 public:
  explicit Reach(double r) : r_(r), r2_(r * r) {}

  long long cell(double v) const noexcept {
    return static_cast<long long>(std::floor(v / r_));
  }

  bool heard(const Vec3& p, const Vec3& c) const noexcept {
    if (!(distance2(p, c) <= r2_)) return false;
    const Vec3 lo = c - Vec3{r_, r_, r_};
    const Vec3 hi = c + Vec3{r_, r_, r_};
    return in_box(p.x, lo.x, hi.x) && in_box(p.y, lo.y, hi.y) &&
           in_box(p.z, lo.z, hi.z);
  }

 private:
  bool in_box(double v, double lo, double hi) const noexcept {
    const long long k = cell(v);
    return cell(lo) <= k && k <= cell(hi);
  }

  double r_;
  double r2_;
};

}  // namespace

std::int64_t MacEngine::cw(int retry) const noexcept {
  // Binary-exponential window: cw_min << retry, capped at cw_max (a cw_max
  // below cw_min simply pins the window at cw_max).
  std::int64_t w = cfg_.cw_min;
  for (int k = 0; k < retry && w < cfg_.cw_max; ++k) w <<= 1;
  return std::min<std::int64_t>(w, cfg_.cw_max);
}

void MacEngine::push(std::int64_t t, int kind, std::uint32_t idx) {
  events_.push_back(Event{t, kind, seq_++, idx});
  std::push_heap(events_.begin(), events_.end(), std::greater<>{});
}

MacEngine::Event MacEngine::pop() {
  std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
  const Event ev = events_.back();
  events_.pop_back();
  return ev;
}

void MacEngine::schedule_backoff(std::uint32_t i, std::int64_t t,
                                 int retry) {
  const std::int64_t delay =
      1 + static_cast<std::int64_t>(
              rng_.uniform_int(static_cast<std::uint64_t>(cw(retry))));
  totals_.backoff_subslots += static_cast<std::uint64_t>(delay);
  push(t + delay, /*kind=*/1, i);
}

void MacEngine::resolve(std::vector<MacFrame>& frames, MacHost& host) {
  last_subslots_ = 0;
  if (frames.empty()) return;
  const std::size_t m = frames.size();
  const std::int64_t air = cfg_.airtime_subslots;
  const Reach reach(cfg_.cca_range);

  retries_.assign(m, 0);
  next_of_src_.assign(m, -1);
  on_air_.clear();
  air_log_.clear();
  std::size_t log_lo = 0;  ///< air_log_[0, log_lo) overlaps no later end

  // A radio transmits one frame at a time: frames sharing a sender form a
  // FIFO chain in batch order, and only the chain head contends.
  chain_heads_.clear();
  for (std::uint32_t i = 0; i < m; ++i) {
    const auto src = static_cast<std::size_t>(frames[i].src);
    if (src >= last_of_src_.size()) last_of_src_.resize(src + 1, -1);
    std::int32_t& last = last_of_src_[src];
    if (last < 0) {
      chain_heads_.push_back(i);
    } else {
      next_of_src_[static_cast<std::size_t>(last)] =
          static_cast<std::int32_t>(i);
    }
    last = static_cast<std::int32_t>(i);
  }
  for (const MacFrame& f : frames)
    last_of_src_[static_cast<std::size_t>(f.src)] = -1;

  events_.clear();
  seq_ = 0;
  // Initial contention-window randomization, drawn in batch order so the
  // stream consumption is a pure function of the batch.
  for (const std::uint32_t i : chain_heads_) {
    const std::int64_t t0 = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(cw(0))));
    totals_.backoff_subslots += static_cast<std::uint64_t>(t0);
    push(t0, /*kind=*/1, i);
  }

  std::int64_t horizon = 0;
  const auto finish = [&](std::uint32_t i, std::int64_t t) {
    const std::int32_t next = next_of_src_[i];
    if (next >= 0) {
      // Successor frame of the same sender starts its own contention cycle
      // one subslot after the predecessor resolved.
      const std::int64_t t0 =
          t + 1 +
          static_cast<std::int64_t>(
              rng_.uniform_int(static_cast<std::uint64_t>(cw(0))));
      totals_.backoff_subslots += static_cast<std::uint64_t>(t0 - t - 1);
      push(t0, /*kind=*/1, static_cast<std::uint32_t>(next));
    }
  };
  const auto drop = [&](std::uint32_t i, MacLossCause cause, std::int64_t t) {
    MacFrame& f = frames[i];
    f.loss = cause;
    switch (cause) {
      case MacLossCause::kCollision: ++totals_.drop_collision; break;
      case MacLossCause::kChannel: ++totals_.drop_channel; break;
      case MacLossCause::kOverflow: ++totals_.drop_overflow; break;
      case MacLossCause::kTargetDown: ++totals_.drop_target_down; break;
      case MacLossCause::kSenderDown: ++totals_.drop_sender_down; break;
      case MacLossCause::kNone: break;
    }
    host.on_drop(f, cause);
    finish(i, t);
  };
  // A failed attempt the sender observes: NACK feedback, then either a
  // backoff reschedule or the terminal drop.
  const auto nack = [&](std::uint32_t i, MacLossCause cause, std::int64_t t) {
    host.on_feedback(frames[i], false);
    if (++retries_[i] > cfg_.max_retries) {
      drop(i, cause, t);
    } else {
      schedule_backoff(i, t, retries_[i]);
    }
  };

  while (!events_.empty()) {
    const Event ev = pop();
    horizon = std::max(horizon, ev.t);
    const std::uint32_t i = ev.idx;
    MacFrame& f = frames[i];
    if (ev.kind == 1) {
      // Attempt start. Eligibility first: a sender that crashed, was
      // stunned, or drained its battery mid-backoff drops its pending
      // frame here, uncharged (audit invariant d2 depends on this).
      if (!host.sender_up(f)) {
        drop(i, MacLossCause::kSenderDown, ev.t);
        continue;
      }
      // CCA: defer while any on-air sender is audible at this sender.
      const bool busy =
          std::any_of(on_air_.begin(), on_air_.end(), [&](std::uint32_t j) {
            return j != i && reach.heard(frames[j].src_pos, f.src_pos);
          });
      if (busy) {
        ++totals_.cca_busy;
        if (++retries_[i] > cfg_.max_retries) {
          // Never got on the air this time, but the saga is over: the
          // upper layer observes the missing ACK.
          host.on_feedback(f, false);
          drop(i, MacLossCause::kCollision, ev.t);
        } else {
          schedule_backoff(i, ev.t, retries_[i]);
        }
        continue;
      }
      ++totals_.tx_attempts;
      if (f.attempts > 0) ++totals_.retransmits;
      host.on_attempt(f, f.attempts);
      ++f.attempts;
      on_air_.push_back(i);
      air_log_.push_back(Airing{ev.t, i});
      push(ev.t + air, /*kind=*/0, i);
      continue;
    }

    // Frame end: resolve the reception.
    *std::find(on_air_.begin(), on_air_.end(), i) = on_air_.back();
    on_air_.pop_back();
    const std::int64_t start = ev.t - air;
    if (!host.target_listening(f)) {
      // Mirrors the ideal path's down-receiver semantics: no channel draw —
      // the receiver simply is not listening, the sender sees no ACK.
      nack(i, MacLossCause::kTargetDown, ev.t);
      continue;
    }
    // Receiver-side interference: every other attempt whose airtime
    // overlaps [start, t) and whose sender is audible at this frame's
    // receiver contributes power. Frame ends pop in time order, so the
    // attempts that started at or before t - 2·air never overlap again.
    while (log_lo < air_log_.size() &&
           air_log_[log_lo].start + 2 * air <= ev.t)
      ++log_lo;
    contributors_.clear();
    for (std::size_t k = log_lo;
         k < air_log_.size() && air_log_[k].start < ev.t; ++k) {
      const auto [a, j] = air_log_[k];
      if (j == i || a + air <= start) continue;
      const Vec3& p = frames[j].src_pos;
      if (!reach.heard(p, f.dst_pos)) continue;
      contributors_.push_back(
          Contributor{reach.cell(p.x), reach.cell(p.y), reach.cell(p.z), j});
    }
    // Sum in (cell, frame) order, one term per overlapping attempt: the
    // order a grid walk over the phase's senders would add them in, which
    // keeps the capture comparison bit-stable.
    std::sort(contributors_.begin(), contributors_.end());
    double interference = 0.0;
    for (const Contributor& c : contributors_)
      interference += rx_power(frames[c.idx].src_pos, f.dst_pos);
    if (interference > 0.0) {
      const double signal = rx_power(f.src_pos, f.dst_pos);
      if (signal >= cfg_.capture_ratio * interference) {
        ++totals_.capture_wins;
      } else {
        ++totals_.collisions;
        nack(i, MacLossCause::kCollision, ev.t);
        continue;
      }
    }
    if (!rng_.bernoulli(f.link_p)) {
      nack(i, MacLossCause::kChannel, ev.t);
      continue;
    }
    if (!host.on_decode(f)) {
      nack(i, MacLossCause::kOverflow, ev.t);
      continue;
    }
    f.delivered = true;
    host.on_feedback(f, true);
    finish(i, ev.t);
  }

  last_subslots_ = horizon;
  totals_.subslots += static_cast<std::uint64_t>(horizon);
}

}  // namespace qlec
