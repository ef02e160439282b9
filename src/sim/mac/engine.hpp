// Deterministic slotted-CSMA contention engine (DESIGN.md §14). The
// simulator batches one sim-slot's transmissions into a "contention phase"
// of MacFrames and calls resolve(): the engine plays them out on a micro-
// slot event timeline — carrier sense within `cca_range` against the frames
// on the air, capture-threshold interference at each receiver from the
// attempts whose airtime overlaps, binary-exponential backoff between
// retransmissions — and hands every side effect (energy charges, queue
// pushes, ACK/NACK protocol feedback, loss accounting) back through the
// MacHost callbacks so the engine itself owns no simulation state.
//
// Determinism contract: the engine draws only from its own private Rng
// stream, in event-processing order, and events play in (time,
// end-before-start, insertion order) — so a resolve() is a pure function
// of (config, seed stream position, frame batch). The batch itself is
// built serially in canonical node order by the simulator, which is what
// keeps MAC-enabled digests invariant to ExecPolicy.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "geom/vec3.hpp"
#include "net/packet.hpp"
#include "sim/mac/mac.hpp"
#include "util/rng.hpp"

namespace qlec {

/// Why a frame was terminally dropped (after the retry budget).
enum class MacLossCause : int {
  kNone = 0,     ///< not dropped (delivered)
  kCollision,    ///< contention: CCA aborts or destructive interference
  kChannel,      ///< the lossy-link Bernoulli failed on every attempt
  kOverflow,     ///< the receiver's cache was full on every attempt
  kTargetDown,   ///< the receiver (or the BS) was down / not listening
  kSenderDown,   ///< the sender went down with the frame still pending
};

const char* mac_loss_cause_name(MacLossCause c) noexcept;

/// One transmission saga: a routed packet (or fused uplink aggregate) that
/// will be attempted up to 1 + max_retries times toward a fixed target.
/// The caller fills the routing/energy fields; the engine fills the outcome.
struct MacFrame {
  int src = -1;  ///< sending node id (>= 0)
  int target = kBaseStationId;
  /// Caller-side payload index (packet slot, uplink-chain slot, ...).
  std::uint32_t tag = 0;
  double bits = 0.0;
  double tx_j = 0.0;    ///< sender energy per attempt (distance-resolved)
  double link_p = 1.0;  ///< per-attempt channel success probability
  Vec3 src_pos{};
  Vec3 dst_pos{};

  // Outcome (engine-written).
  bool delivered = false;
  MacLossCause loss = MacLossCause::kNone;
  int attempts = 0;  ///< transmissions actually put on the air
};

/// Simulation-side callbacks. The engine guarantees: `on_attempt` fires
/// once per on-air transmission (attempt index from 0) and only while
/// `sender_up` holds; `on_decode` fires only for clean (un-collided,
/// channel-passed) receptions at a listening target; `on_feedback` fires
/// once per resolved attempt that the sender can observe (ACK or NACK — a
/// sender that died mid-backoff observes nothing); `on_drop` fires once for
/// a frame that exhausted its retries (loss accounting).
class MacHost {
 public:
  virtual ~MacHost() = default;
  virtual bool sender_up(const MacFrame& f) = 0;
  virtual bool target_listening(const MacFrame& f) = 0;
  virtual void on_attempt(MacFrame& f, int attempt) = 0;
  /// Clean decode at the receiver: charge RX, accept into the cache (or
  /// record a BS delivery). Returns false on cache overflow (NACK).
  virtual bool on_decode(MacFrame& f) = 0;
  virtual void on_feedback(MacFrame& f, bool ack) = 0;
  virtual void on_drop(MacFrame& f, MacLossCause cause) = 0;
};

class MacEngine {
 public:
  MacEngine(const MacConfig& cfg, std::uint64_t seed);

  /// Plays one contention phase to completion. Every frame ends either
  /// delivered or dropped with a cause; per-frame outcome fields and the
  /// cumulative counters are updated. Multiple frames from the same sender
  /// are serialized (a radio transmits one frame at a time).
  void resolve(std::vector<MacFrame>& frames, MacHost& host);

  /// Cumulative counters across every phase resolved so far.
  const MacCounters& totals() const noexcept { return totals_; }
  /// Timeline length (subslots) of the most recent resolve(); drives the
  /// duty-cycle idle-listening charge.
  std::int64_t last_phase_subslots() const noexcept { return last_subslots_; }

 private:
  /// A pending frame end or attempt start of frame `idx` at subslot `t`.
  struct Event {
    std::int64_t t = 0;
    std::uint32_t idx = 0;
  };
  /// The events of one ring position, of every lap, each kind in push
  /// order. Subslot t plays its ends first, then its starts.
  struct Bucket {
    std::vector<Event> ends;
    std::vector<Event> starts;
  };

  std::int64_t cw(int retry) const noexcept;
  void push(std::vector<Event> Bucket::*kind, std::int64_t t,
            std::uint32_t idx);
  /// Moves `list`'s events due at `t` into due_, in push order.
  void take_due(std::vector<Event>& list, std::int64_t t);
  std::int64_t earliest_pending() const noexcept;
  void schedule_backoff(std::uint32_t i, std::int64_t t, int retry);

  const MacConfig cfg_;
  Rng rng_;  ///< private stream; persists across phases within one run
  MacCounters totals_;
  std::int64_t last_subslots_ = 0;

  /// One attempt put on the air: frame `idx` occupies [start, start + air).
  struct Airing {
    std::int64_t start = 0;
    std::uint32_t idx = 0;
  };
  /// An interferer at a receiver, keyed in the order its power is summed.
  struct Contributor {
    long long cx = 0, cy = 0, cz = 0;  ///< the sender's carrier-sense cell
    std::uint32_t idx = 0;
    friend auto operator<=>(const Contributor&,
                            const Contributor&) = default;
  };

  /// The event queue: a ring of buckets indexed by subslot (DESIGN.md
  /// §14). Every push lands strictly after the subslot being played, so
  /// a subslot's events are all queued when it starts and play in
  /// (t, end-before-start, push order) with no comparisons.
  std::vector<Bucket> buckets_;
  std::size_t ring_mask_ = 0;  ///< buckets_.size() - 1 (a power of two)
  std::size_t pending_ = 0;    ///< events queued, all buckets

  // Per-phase scratch (grow-only; reused across phases).
  std::vector<Event> due_;  ///< the events playing at the current subslot
  std::vector<int> retries_;
  std::vector<std::int32_t> next_of_src_;  ///< same-sender FIFO chains
  std::vector<std::uint32_t> chain_heads_;
  /// Last frame seen per sender id while chaining; all -1 between phases.
  std::vector<std::int32_t> last_of_src_;
  std::vector<std::uint32_t> on_air_;      ///< frames on the air now
  /// Every attempt of the phase in start order (events pop in time order).
  std::vector<Airing> air_log_;
  std::vector<Contributor> contributors_;
};

}  // namespace qlec
