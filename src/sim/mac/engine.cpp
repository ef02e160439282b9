#include "sim/mac/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

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

/// Ring width cap. The schema accepts windows up to INT_MAX subslots;
/// events further ahead than the ring wait in their bucket for their lap.
constexpr std::int64_t kMaxRing = 1024;

MacEngine::MacEngine(const MacConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  // A push lands at most max(airtime, cw(0), cw(max_retries)) subslots
  // ahead (cw(0) <= cw_min), so a ring one wider never holds two laps.
  const std::int64_t reach =
      std::max({std::int64_t{cfg_.airtime_subslots},
                std::int64_t{cfg_.cw_min}, cw(cfg_.max_retries)});
  const auto ring = std::bit_ceil(
      static_cast<std::uint64_t>(std::min(reach + 1, kMaxRing)));
  buckets_.resize(ring);
  ring_mask_ = ring - 1;
}

std::int64_t MacEngine::cw(int retry) const noexcept {
  // Binary-exponential window: cw_min << retry, capped at cw_max (a cw_max
  // below cw_min simply pins the window at cw_max).
  std::int64_t w = cfg_.cw_min;
  for (int k = 0; k < retry && w < cfg_.cw_max; ++k) w <<= 1;
  return std::min<std::int64_t>(w, cfg_.cw_max);
}

void MacEngine::push(std::vector<Event> Bucket::*kind, std::int64_t t,
                     std::uint32_t idx) {
  (buckets_[static_cast<std::size_t>(t) & ring_mask_].*kind)
      .push_back(Event{t, idx});
  ++pending_;
}

void MacEngine::take_due(std::vector<Event>& list, std::int64_t t) {
  due_.clear();
  std::size_t keep = 0;
  for (const Event& e : list) {
    if (e.t == t) {
      due_.push_back(e);
    } else {
      list[keep++] = e;  // a later lap
    }
  }
  list.resize(keep);
  pending_ -= due_.size();
}

std::int64_t MacEngine::earliest_pending() const noexcept {
  std::int64_t t = INT64_MAX;
  for (const Bucket& b : buckets_) {
    for (const Event& e : b.ends) t = std::min(t, e.t);
    for (const Event& e : b.starts) t = std::min(t, e.t);
  }
  return t;
}

void MacEngine::schedule_backoff(std::uint32_t i, std::int64_t t,
                                 int retry) {
  const std::int64_t delay =
      1 + static_cast<std::int64_t>(
              rng_.uniform_int(static_cast<std::uint64_t>(cw(retry))));
  totals_.backoff_subslots += static_cast<std::uint64_t>(delay);
  push(&Bucket::starts, t + delay, i);
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

  // Initial contention-window randomization, drawn in batch order so the
  // stream consumption is a pure function of the batch.
  for (const std::uint32_t i : chain_heads_) {
    const std::int64_t t0 = static_cast<std::int64_t>(
        rng_.uniform_int(static_cast<std::uint64_t>(cw(0))));
    totals_.backoff_subslots += static_cast<std::uint64_t>(t0);
    push(&Bucket::starts, t0, i);
  }

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
      push(&Bucket::starts, t0, static_cast<std::uint32_t>(next));
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

  const auto attempt_start = [&](std::uint32_t i, std::int64_t t) {
    MacFrame& f = frames[i];
    // Eligibility first: a sender that crashed, was stunned, or drained its
    // battery mid-backoff drops its pending frame here, uncharged (audit
    // invariant d2 depends on this).
    if (!host.sender_up(f)) {
      drop(i, MacLossCause::kSenderDown, t);
      return;
    }
    // CCA: defer while any on-air sender is audible at this sender.
    const bool busy =
        std::any_of(on_air_.begin(), on_air_.end(), [&](std::uint32_t j) {
          return j != i && reach.heard(frames[j].src_pos, f.src_pos);
        });
    if (busy) {
      ++totals_.cca_busy;
      if (++retries_[i] > cfg_.max_retries) {
        // Never got on the air this time, but the saga is over: the upper
        // layer observes the missing ACK.
        host.on_feedback(f, false);
        drop(i, MacLossCause::kCollision, t);
      } else {
        schedule_backoff(i, t, retries_[i]);
      }
      return;
    }
    ++totals_.tx_attempts;
    if (f.attempts > 0) ++totals_.retransmits;
    host.on_attempt(f, f.attempts);
    ++f.attempts;
    on_air_.push_back(i);
    air_log_.push_back(Airing{t, i});
    push(&Bucket::ends, t + air, i);
  };

  // Frame end: resolve the reception.
  const auto frame_end = [&](std::uint32_t i, std::int64_t t) {
    MacFrame& f = frames[i];
    *std::find(on_air_.begin(), on_air_.end(), i) = on_air_.back();
    on_air_.pop_back();
    const std::int64_t start = t - air;
    if (!host.target_listening(f)) {
      // Mirrors the ideal path's down-receiver semantics: no channel draw —
      // the receiver simply is not listening, the sender sees no ACK.
      nack(i, MacLossCause::kTargetDown, t);
      return;
    }
    // Receiver-side interference: every other attempt whose airtime
    // overlaps [start, t) and whose sender is audible at this frame's
    // receiver contributes power. Frame ends play in time order, so the
    // attempts that started at or before t - 2·air never overlap again.
    while (log_lo < air_log_.size() &&
           air_log_[log_lo].start + 2 * air <= t)
      ++log_lo;
    contributors_.clear();
    for (std::size_t k = log_lo;
         k < air_log_.size() && air_log_[k].start < t; ++k) {
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
        nack(i, MacLossCause::kCollision, t);
        return;
      }
    }
    if (!rng_.bernoulli(f.link_p)) {
      nack(i, MacLossCause::kChannel, t);
      return;
    }
    if (!host.on_decode(f)) {
      nack(i, MacLossCause::kOverflow, t);
      return;
    }
    f.delivered = true;
    host.on_feedback(f, true);
    finish(i, t);
  };

  // Walk the subslots in order. Nothing a subslot plays lands at that
  // subslot (a backoff is >= 1, a successor starts at >= t + 1, a frame
  // ends at t + airtime >= t + 1), so its events are all queued before it
  // starts, and ends-then-starts in push order is the (t, end-before-start,
  // insertion) order. A lap of the ring with nothing due means every
  // pending event is a lap or more ahead: jump to the earliest.
  std::int64_t horizon = 0;
  std::size_t idle = 0;  ///< subslots walked since one played an event
  for (std::int64_t t = 0; pending_ > 0; ++t) {
    Bucket& b = buckets_[static_cast<std::size_t>(t) & ring_mask_];
    bool played = false;
    if (!b.ends.empty()) {
      take_due(b.ends, t);
      for (const Event& ev : due_) frame_end(ev.idx, t);
      played = !due_.empty();
    }
    if (!b.starts.empty()) {
      take_due(b.starts, t);
      for (const Event& ev : due_) attempt_start(ev.idx, t);
      played = played || !due_.empty();
    }
    if (played) {
      horizon = t;
      idle = 0;
    } else if (++idle == buckets_.size()) {
      t = earliest_pending() - 1;
      idle = 0;
    }
  }

  last_subslots_ = horizon;
  totals_.subslots += static_cast<std::uint64_t>(horizon);
}

}  // namespace qlec
