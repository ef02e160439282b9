#include "sim/simulator.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "energy/radio_model.hpp"
#include "net/queue.hpp"
#include "net/traffic.hpp"
#include "obs/telemetry.hpp"
#include "sim/audit.hpp"
#include "sim/mac/engine.hpp"

namespace qlec {
namespace {

/// A packet waiting at a node that is no longer able to forward it this
/// round (leftover head-cache content); re-injected next round.
struct Stranded {
  int holder;
  Packet packet;
};

/// Structure-of-arrays round state (DESIGN.md §8). The per-node facts the
/// inner loops touch — position, residual energy, liveness, head flag — are
/// mirrored into flat contiguous arrays indexed by node id, refreshed once
/// per round after election and written through on every battery mutation.
/// The authoritative state stays in Network/Battery; the mirrors exist so
/// the per-packet path never chases SensorNode pointers or recomputes
/// predicates, and they are kept exact (every value is read back from the
/// battery right after the mutation), so traces stay bit-identical.
struct RoundState {
  std::vector<Vec3> pos;              // position snapshot (post-mobility)
  std::vector<double> residual;       // battery residual, write-through
  std::vector<std::uint8_t> alive;    // residual > death_line, write-through
  std::vector<std::uint8_t> is_head;  // this round's head flags
  std::vector<int> heads;             // this round's head ids, in id order
  /// node id -> queue slot in the reusable queue/fused pools below, or -1.
  /// Flat mode: identity (every node owns a persistent relay buffer).
  /// Cluster mode: heads[i] -> i, refreshed each round.
  std::vector<std::int32_t> queue_slot;
};

class SimRun {
 public:
  SimRun(Network& net, ClusteringProtocol& protocol, const SimConfig& cfg,
         Rng& rng)
      : net_(net),
        protocol_(protocol),
        cfg_(cfg),
        rng_(rng),
        radio_(cfg.radio),
        traffic_(net.size(), cfg.mean_interarrival, rng),
        mobility_(cfg.mobility, net.size()),
        bs_(net.bs()),
        flat_(protocol.flat_routing()) {
    result_.protocol = protocol.name();
    const std::size_t n = net.size();
    rs_.pos.resize(n);
    rs_.residual.resize(n);
    rs_.alive.resize(n);
    rs_.is_head.resize(n);
    rs_.queue_slot.assign(n, -1);
    if (cfg.fault.enabled) {
      // The fault stream folds one simulation-Rng draw into its seed so it
      // varies per seed yet replays exactly; with faults disabled the draw
      // never happens and the main stream is untouched.
      fault_.emplace(cfg.fault, n, cfg.death_line,
                     rng.next_u64() ^ cfg.fault.seed);
      result_.resilience.enabled = true;
    }
    if (cfg.mac.enabled) {
      // Same RNG-stream discipline as the fault injector: exactly one
      // main-stream draw folds into the MAC seed, and only when the
      // subsystem is on — disabled runs never see it, so their trajectory
      // (and every golden digest) is untouched. The order is part of the
      // contract: the fault draw (above) happens first when both are on.
      mac_.emplace(cfg.mac, rng.next_u64() ^ cfg.mac.seed);
      result_.mac.enabled = true;
    }
    if (cfg.env.enabled) {
      // The environment is RNG-free by construction (a pure function of
      // geometry), so unlike fault/mac it folds nothing into any seed and
      // the main stream is untouched whether it is on or off.
      env_.emplace(cfg.env, net.domain());
    }
    if (cfg.bs_trajectory.kind != TrajectoryKind::kNone) {
      // Also RNG-free: the sink advances along a closed-form path at round
      // boundaries on the main thread.
      traj_.emplace(cfg.bs_trajectory, net.bs());
    }
    if (cfg.audit.enabled) {
      result_.energy.enable_per_node(n);
      auditor_.emplace(net, cfg.death_line, flat_,
                       cfg.harvest_per_round > 0.0 ||
                           (cfg.env.enabled && cfg.env.harvest.per_round > 0.0),
                       cfg.audit.throw_on_violation, cfg.fault.enabled);
    }
    if (cfg.telemetry.enabled) {
      // Strictly observational (no Rng draws, no state influence): the
      // trajectory is bit-identical with telemetry on or off.
      telemetry_ = std::make_unique<obs::Telemetry>(cfg.telemetry);
      tracer_ = telemetry_->tracer();
      retries_ = &telemetry_->metrics().counter("sim.tx.retries");
      protocol.set_telemetry(telemetry_.get());
      if (fault_) fault_->set_telemetry(telemetry_.get());
    }
  }

  ~SimRun() {
    // The protocol outlives this run; never leave it a dangling context.
    if (telemetry_ != nullptr) protocol_.set_telemetry(nullptr);
  }

  SimResult run();

 private:
  bool alive(int id) const {
    return rs_.alive[static_cast<std::size_t>(id)] != 0;
  }

  /// Position of a node or, for kBaseStationId, of the (current) BS.
  const Vec3& pos_of(int id) const {
    return id == kBaseStationId ? bs_ : rs_.pos[static_cast<std::size_t>(id)];
  }

  double dist(int from, int to) const {
    return distance(pos_of(from), pos_of(to));
  }

  /// Whether `id` can receive now: the BS outside an outage window, or an
  /// alive node.
  bool target_up(int id) const {
    return id == kBaseStationId ? bs_up() : alive(id);
  }

  void charge(int id, EnergyUse use, double joules) {
    Battery& b = net_.node(id).battery;
    result_.energy.charge(use, b.consume(joules), id);
    sync_battery(id, b);
  }

  /// Re-reads one node's battery into the SoA mirror (after any mutation).
  /// Liveness folds in the fault-layer up flag: a crashed or stunned node
  /// is not alive no matter its residual.
  void sync_battery(int id, const Battery& b) {
    const auto i = static_cast<std::size_t>(id);
    rs_.residual[i] = b.residual();
    rs_.alive[i] =
        (b.alive(cfg_.death_line) && net_.node(id).up) ? 1 : 0;
  }

  /// Charges `joules` of `use` to every operational node: the listening
  /// drains. Fault-down radios are off: they neither listen nor pay for it
  /// (audit invariant d2).
  void drain_operational(EnergyUse use, double joules) {
    for (SensorNode& node : net_.nodes()) {
      if (!node.operational(cfg_.death_line)) continue;
      result_.energy.charge(use, node.battery.consume(joules), node.id);
      sync_battery(node.id, node.battery);
    }
  }

  /// Refreshes the whole round state from the network: positions (mobility
  /// ran), batteries (the protocol's control phase drained energy), and the
  /// freshly elected head set.
  void refresh_round_state() {
    const std::vector<SensorNode>& nodes = net_.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const SensorNode& n = nodes[i];
      rs_.pos[i] = n.pos;
      rs_.residual[i] = n.battery.residual();
      rs_.alive[i] = n.operational(cfg_.death_line) ? 1 : 0;
      rs_.is_head[i] = n.is_head ? 1 : 0;
    }
    net_.head_ids_into(rs_.heads);
  }

  /// Books `count` packets lost at `holder` on a hop toward `target`. The
  /// one writer of the loss counters, apart from the end-of-run carryover
  /// tally (DESIGN.md §9). The cause picks the counter: kSenderDown ->
  /// lost_dead, kOverflow -> lost_queue, kTargetDown/kChannel/kCollision ->
  /// lost_link. kNone marks a spent hop budget (a routing cycle): a link
  /// loss with no fault refinement. Faulted runs then refine by fault class.
  void lose(MacLossCause cause, int holder, int target, std::uint64_t count) {
    ResilienceStats& res = result_.resilience;
    if (cause == MacLossCause::kSenderDown) {
      result_.lost_dead += count;
      if (fault_down(holder)) res.lost_at_down_node += count;
      return;
    }
    if (cause == MacLossCause::kOverflow) {
      result_.lost_queue += count;
      return;
    }
    result_.lost_link += count;
    if (!fault_ || cause == MacLossCause::kNone) return;
    if (cause == MacLossCause::kTargetDown) {
      if (target == kBaseStationId) {  // only an outage silences the BS
        res.lost_to_bs_outage += count;
        return;
      }
      if (fault_down(target)) {
        res.lost_to_down_target += count;
        return;
      }
    }
    if (fault_->link_factor() < 1.0) res.lost_during_degradation += count;
  }

  /// Member data path: route + transmit (with retries) + enqueue at a head
  /// or deliver straight to the BS.
  void deliver_from(int src, Packet p);

  /// Member packet decoded at head `target`: receive energy, then the head
  /// cache. False on overflow — the sender gets a NACK ("limited storage
  /// caches of cluster heads may lead to packet loss").
  bool cache_packet(int target, const Packet& p) {
    charge(target, EnergyUse::kReceive, radio_.rx_energy(p.bits));
    const std::int32_t qs = rs_.queue_slot[static_cast<std::size_t>(target)];
    if (qs < 0 || !queues_[static_cast<std::size_t>(qs)].push(p)) return false;
    if (auditor_) auditor_->on_relay_accept(net_, target, true);
    return true;
  }

  /// Round-end uplink of one head's fused aggregate, following the
  /// protocol's uplink chain toward the BS.
  struct HeadBuffer {
    double bits = 0.0;
    std::vector<Packet> packets;
  };
  void deliver_aggregate(int head, HeadBuffer& buf);

  /// An uplink aggregate decoded at intermediate head `target`: receive
  /// energy, then a congestion check against the relay's remaining cache
  /// headroom (the multi-hop loss mechanism the paper attributes to the
  /// FCM comparator). False when the relay cache is full.
  bool relay_accept(int target, double bits) {
    charge(target, EnergyUse::kReceive, radio_.rx_energy(bits));
    const std::int32_t qs = rs_.queue_slot[static_cast<std::size_t>(target)];
    if (qs >= 0 && cfg_.queue_capacity != 0 &&
        queues_[static_cast<std::size_t>(qs)].size() >= cfg_.queue_capacity)
      return false;
    if (auditor_) auditor_->on_relay_accept(net_, target, true);
    return true;
  }

  /// ACK/NACK of one head-uplink hop: a BS hop feeds the protocol's uplink
  /// estimate, a relay hop its per-link one.
  void uplink_feedback(int holder, int target, bool ack) {
    if (target == kBaseStationId)
      protocol_.on_uplink_result(net_, holder, ack);
    else
      protocol_.on_tx_result(net_, holder, target, ack);
  }

  // ---- Contention-aware MAC sub-phase (engaged when cfg.mac.enabled;
  // DESIGN.md §14). deliver_from defers to a per-slot frame batch that one
  // MacEngine::resolve call plays out; round-end uplink chains advance one
  // hop per contention phase. ----

  /// One frame src -> target carrying `bits`, priced at the current
  /// positions (the MAC engine draws its Bernoulli from its own stream).
  MacFrame make_frame(int src, int target, double bits,
                      std::uint32_t tag) const {
    const double d = dist(src, target);
    MacFrame f;
    f.src = src;
    f.target = target;
    f.tag = tag;
    f.bits = bits;
    f.tx_j = tx_energy(src, target, bits, d);
    f.link_p = base_link_p(target, d) * link_scale(src, target);
    f.src_pos = pos_of(src);
    f.dst_pos = pos_of(target);
    return f;
  }

  /// Routes `p` once (main stream, canonical call order) and stages the
  /// frame for this slot's contention phase. MAC retransmissions keep the
  /// routed target: the engine retransmits a frame, it does not re-route
  /// the packet.
  void mac_enqueue(int src, Packet p) {
    const int target = protocol_.route(net_, src, p.bits, rng_);
    mac_frames_.push_back(make_frame(
        src, target, p.bits, static_cast<std::uint32_t>(mac_payload_.size())));
    ++p.hops;
    mac_payload_.push_back(p);
  }

  /// The callbacks member and uplink frames share: liveness from the round
  /// state, and the first attempt in the kTransmit bucket (comparable with
  /// the ideal model) with retransmissions as MAC overhead.
  struct SimMacHost : MacHost {
    SimRun& s;
    explicit SimMacHost(SimRun& r) : s(r) {}
    bool sender_up(const MacFrame& f) override { return s.alive(f.src); }
    bool target_listening(const MacFrame& f) override {
      return s.target_up(f.target);
    }
    void on_attempt(MacFrame& f, int attempt) override {
      s.charge(f.src,
               attempt == 0 ? EnergyUse::kTransmit : EnergyUse::kMac,
               f.tx_j);
    }
  };

  /// Side effects for member/arrival frames (payload = mac_payload_[tag]).
  struct MemberMacHost final : SimMacHost {
    using SimMacHost::SimMacHost;
    bool on_decode(MacFrame& f) override {
      Packet& p = s.mac_payload_[f.tag];
      if (f.target != kBaseStationId) return s.cache_packet(f.target, p);
      s.record_delivery(p, s.global_slot_);
      return true;
    }
    void on_feedback(MacFrame& f, bool ack) override {
      s.protocol_.on_tx_result(s.net_, f.src, f.target, ack);
    }
    void on_drop(MacFrame& f, MacLossCause cause) override {
      s.lose(cause, f.src, f.target, 1);
    }
  };

  /// Side effects for head-uplink frames (payload = the fused buffer of
  /// chain mac_chains_[tag]; a drop loses the whole aggregate).
  struct UplinkMacHost final : SimMacHost {
    using SimMacHost::SimMacHost;
    bool on_decode(MacFrame& f) override {
      // A BS delivery is recorded by the chain walk.
      return f.target == kBaseStationId || s.relay_accept(f.target, f.bits);
    }
    void on_feedback(MacFrame& f, bool ack) override {
      s.uplink_feedback(f.src, f.target, ack);
    }
    void on_drop(MacFrame& f, MacLossCause cause) override {
      const HeadBuffer& buf = s.fused_[static_cast<std::size_t>(
          s.mac_chains_[f.tag].buf)];
      s.lose(cause, f.src, f.target, buf.packets.size());
    }
  };

  /// Plays the staged frame batch through one contention phase, then the
  /// phase's duty-cycle listening: every operational radio listens for
  /// duty_cycle of each subslot the phase lasted.
  void mac_resolve(MacHost& host) {
    mac_->resolve(mac_frames_, host);
    const double j = cfg_.mac.duty_cycle * cfg_.mac.idle_j_per_subslot *
                     static_cast<double>(mac_->last_phase_subslots());
    if (j > 0.0) drain_operational(EnergyUse::kMac, j);
  }

  /// Plays this slot's staged member frames through one contention phase.
  void mac_resolve_slot() {
    if (mac_frames_.empty()) return;
    MemberMacHost host(*this);
    mac_resolve(host);
    mac_frames_.clear();
    mac_payload_.clear();
  }

  /// Round-end uplinks under MAC: all live chains' current hops form one
  /// contention phase per wave (relaying heads genuinely interfere with
  /// each other), delivered chains to intermediate heads advance and
  /// contend again next wave.
  void mac_deliver_uplinks(const std::vector<int>& heads);

  /// Per-round telemetry roll-up (called only while telemetry is attached):
  /// packet counters advance by this round's cumulative deltas, liveness
  /// gauges refresh, and one "round_end" event summarizes the round.
  [[gnu::cold]] void emit_round_metrics(int round, std::size_t alive_now,
                                        std::size_t head_ct);
  /// Advances the sim.packets.* counters to the SimResult totals (once per
  /// round, and once more after the end-of-run loss tally).
  [[gnu::cold]] void emit_packet_counters();

  /// MAC counter roll-up into the metrics registry (telemetry-attached,
  /// MAC-enabled rounds only). Naming: OBSERVABILITY.md "sim.mac.*".
  [[gnu::cold]] void emit_mac_metrics(const MacCounters& d) {
    obs::MetricsRegistry& m = telemetry_->metrics();
    m.counter("sim.mac.tx_attempts").inc(d.tx_attempts);
    m.counter("sim.mac.retransmits").inc(d.retransmits);
    m.counter("sim.mac.collisions").inc(d.collisions);
    m.counter("sim.mac.capture_wins").inc(d.capture_wins);
    m.counter("sim.mac.cca_busy").inc(d.cca_busy);
    m.counter("sim.mac.backoff_subslots").inc(d.backoff_subslots);
    m.counter("sim.mac.subslots").inc(d.subslots);
  }

  /// Retry bookkeeping, outlined so the Event construction never bloats
  /// the deliver loops (the hot path keeps only the null-telemetry test).
  [[gnu::noinline, gnu::cold]] void note_retry(int src, int target,
                                               int attempt) {
    retries_->inc();
    if (telemetry_->per_packet_events())
      telemetry_->emit(obs::Event("retry", cur_round_)
                           .with("src", src)
                           .with("target", target)
                           .with("attempt", attempt));
  }

  void record_delivery(Packet& p, std::int64_t slot) {
    p.deliver_slot = slot;
    ++result_.delivered;
    result_.latency.add(static_cast<double>(p.latency()));
  }

  /// Transmission cost src -> target: the radio model's tx_energy, with
  /// only the AMPLIFIER part scaled up for submerged links (underwater
  /// acoustics; the electronics cost is depth-independent). Factor 1.0
  /// reproduces radio_.tx_energy bit-for-bit.
  double tx_energy(int src, int target, double bits, double d) const {
    const double e = radio_.tx_energy(bits, d);
    if (!env_) return e;
    const double f = env_->tx_amp_factor(pos_of(src), pos_of(target));
    if (f <= 1.0) return e;
    return e + (f - 1.0) * radio_.amp_energy(bits, d);
  }

  /// Unscaled per-attempt success probability toward `target` over
  /// distance `d` (BS uplinks land on the sink's high-gain receiver).
  double base_link_p(int target, double d) const {
    return target == kBaseStationId ? cfg_.link.bs_success_probability(d)
                                    : cfg_.link.success_probability(d);
  }

  /// The fault x env success-probability scale for src -> target: any
  /// active link-degradation episode times the environment's obstruction
  /// factor. Exactly 1.0 with both off — and for a zero-obstruction enabled
  /// world — which keeps link_attempt on its unscaled branch.
  double link_scale(int src, int target) const {
    double scale =
        env_ ? env_->link_factor(pos_of(src), pos_of(target)) : 1.0;
    if (fault_) scale *= fault_->link_factor();
    return scale;
  }

  /// One ideal-path channel attempt (main stream). A scale of 1.0 or more
  /// leaves the probability unscaled, so the Bernoulli compare — and the
  /// trace — is bit-identical to a run without fault and env.
  bool link_attempt(int src, int target, double d) {
    const double p = base_link_p(target, d);
    const double scale = link_scale(src, target);
    return rng_.bernoulli(scale >= 1.0 ? p : p * scale);
  }
  /// False while a fault-injected BS outage window is active.
  bool bs_up() const { return !fault_ || fault_->bs_up(); }
  /// True when `id` is down specifically because of an injected fault.
  bool fault_down(int id) const { return fault_ && fault_->down(id); }

  Network& net_;
  ClusteringProtocol& protocol_;
  const SimConfig& cfg_;
  Rng& rng_;
  RadioModel radio_;
  PoissonTraffic traffic_;
  MobilityModel mobility_;
  SimResult result_;
  /// Current BS position. Static by default; a BsTrajectory rewrites it at
  /// the top of every round (together with net_.set_bs) before any phase
  /// reads a distance, so the whole round sees one consistent sink.
  Vec3 bs_;

  std::optional<SimAuditor> auditor_;  // engaged when cfg.audit.enabled
  std::optional<Environment> env_;     // engaged when cfg.env.enabled
  std::optional<BsTrajectory> traj_;   // engaged when a trajectory is set

  // Engaged when cfg.telemetry.enabled; all instrumented sites below guard
  // on these pointers, so the disabled path costs one null test each.
  std::unique_ptr<obs::Telemetry> telemetry_;
  obs::TraceRecorder* tracer_ = nullptr;  // null unless trace_phases
  obs::Counter* retries_ = nullptr;
  int cur_round_ = -1;  // for events emitted from the packet path
  // Previous-round cumulative totals, for per-round counter deltas.
  struct {
    std::uint64_t generated = 0, delivered = 0;
    std::uint64_t lost_link = 0, lost_queue = 0, lost_dead = 0;
  } emitted_;

  std::optional<MacEngine> mac_;  // engaged when cfg.mac.enabled
  std::vector<MacFrame> mac_frames_;  // per-phase frame batch scratch
  std::vector<Packet> mac_payload_;   // member-frame payloads, by tag
  /// One head-uplink chain: the fused_ buffer index it carries plus its
  /// current holder and hop count.
  struct UpChain {
    int holder;
    int buf;
    int hops;
  };
  std::vector<UpChain> mac_chains_;  // this wave's chains, by frame tag
  std::vector<UpChain> mac_active_;  // chains still short of the BS
  MacCounters mac_prev_;  // last round's cumulative totals, for deltas

  std::optional<FaultInjector> fault_;  // engaged when cfg.fault.enabled
  std::vector<FaultInjector::Fade> fade_ops_;  // per-round fade scratch
  std::vector<int> crashed_scratch_;           // per-round new-crash scratch
  std::uint64_t gen_at_round_start_ = 0;  // per-round resilience deltas
  std::uint64_t del_at_round_start_ = 0;
  bool saw_heads_ = false;  // protocol has elected >= 1 head at least once

  RoundState rs_;
  // Reusable pools indexed by rs_.queue_slot (grow-only; cleared per round
  // in cluster mode, persistent per node in flat mode). With these plus the
  // scratch buffers below, the slot loop performs no allocation once every
  // container has reached its high-water capacity.
  std::vector<PacketQueue> queues_;
  std::vector<HeadBuffer> fused_;
  std::vector<Stranded> carryover_;
  std::vector<Stranded> injections_;       // last round's carryover
  std::vector<Stranded> staged_;           // flat-mode two-phase service
  std::vector<std::size_t> arrivals_;      // per-slot Poisson arrivals

  std::int64_t global_slot_ = 0;
  std::uint64_t next_packet_id_ = 0;
  bool flat_ = false;
  /// Relay-hop budget of a flat-mode packet or a head-uplink chain; beyond
  /// it the route has cycled.
  static constexpr int kMaxRelayHops = 64;
};

void SimRun::deliver_from(int src, Packet p) {
  if (!alive(src)) return lose(MacLossCause::kSenderDown, src, src, 1);
  if (flat_ && p.hops >= kMaxRelayHops)  // routing cycle / unreachable sink
    return lose(MacLossCause::kNone, src, src, 1);
  // A node that is itself a head this round feeds its own cache directly
  // (sensing costs no radio energy).
  if (rs_.is_head[static_cast<std::size_t>(src)] != 0) {
    const std::int32_t qs = rs_.queue_slot[static_cast<std::size_t>(src)];
    if (qs >= 0 && queues_[static_cast<std::size_t>(qs)].push(p)) return;
    return lose(MacLossCause::kOverflow, src, src, 1);
  }
  if (mac_) {
    // Contention-aware path: stage the frame for this slot's phase instead
    // of resolving the transmission inline.
    mac_enqueue(src, p);
    return;
  }

  int target = kBaseStationId;
  MacLossCause cause = MacLossCause::kNone;
  for (int attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    // Re-consult the protocol on every retry: the failed b_i -> b_i
    // transition leaves the agent free to pick a different action.
    target = protocol_.route(net_, src, p.bits, rng_);
    if (attempt > 0 && telemetry_ != nullptr)
      note_retry(src, target, attempt);
    const double d = dist(src, target);
    charge(src, EnergyUse::kTransmit, tx_energy(src, target, p.bits, d));
    ++p.hops;
    // A BS in an outage window behaves like a down relay: the sender pays
    // for the attempt and gets no ACK (no channel draw — the receiver is
    // simply not listening).
    const bool up = target_up(target);
    const bool link_ok = up && link_attempt(src, target, d);
    // The ACK only comes back if the radio delivered AND the head had
    // cache room — so queue overflow also trains the link estimator.
    const bool ack =
        link_ok && (target == kBaseStationId || cache_packet(target, p));
    protocol_.on_tx_result(net_, src, target, ack);
    if (ack) {
      if (target == kBaseStationId) record_delivery(p, global_slot_);
      return;  // delivered to BS or safely cached at a head
    }
    cause = !up       ? MacLossCause::kTargetDown
            : link_ok ? MacLossCause::kOverflow
                      : MacLossCause::kChannel;
  }
  // Attributed by what the final attempt hit.
  lose(cause, src, target, 1);
}

void SimRun::deliver_aggregate(int head, HeadBuffer& buf) {
  if (buf.packets.empty()) return;
  const std::uint64_t count = buf.packets.size();
  int holder = head;
  // Head chains strictly descend toward the BS for well-formed protocols;
  // the hop budget guards against a buggy uplink_target cycling.
  for (int relay_hops = 0; relay_hops <= kMaxRelayHops; ++relay_hops) {
    if (!alive(holder))
      return lose(MacLossCause::kSenderDown, holder, holder, count);
    const int target = protocol_.uplink_target(net_, holder, rng_);
    bool up = false;
    bool success = false;
    for (int attempt = 0; attempt <= cfg_.max_retries && !success;
         ++attempt) {
      if (attempt > 0 && telemetry_ != nullptr) retries_->inc();
      const double d = dist(holder, target);
      charge(holder, EnergyUse::kTransmit,
             tx_energy(holder, target, buf.bits, d));
      up = target_up(target);
      success = up && link_attempt(holder, target, d);
      uplink_feedback(holder, target, success);
    }
    if (!success)
      return lose(up ? MacLossCause::kChannel : MacLossCause::kTargetDown,
                  holder, target, count);
    if (target == kBaseStationId) {
      // One slot of delay per relay hop taken on the way up.
      for (Packet& p : buf.packets)
        record_delivery(p, global_slot_ + relay_hops);
      return;
    }
    if (!relay_accept(target, buf.bits))
      return lose(MacLossCause::kOverflow, holder, target, count);
    holder = target;
  }
  lose(MacLossCause::kNone, holder, holder, count);
}

void SimRun::mac_deliver_uplinks(const std::vector<int>& heads) {
  mac_active_.clear();
  for (std::size_t i = 0; i < heads.size(); ++i) {
    if (!fused_[i].packets.empty())
      mac_active_.push_back(UpChain{heads[i], static_cast<int>(i), 0});
  }
  UplinkMacHost host(*this);
  while (!mac_active_.empty()) {
    mac_frames_.clear();
    mac_chains_.clear();
    for (const UpChain& c : mac_active_) {
      const HeadBuffer& buf = fused_[static_cast<std::size_t>(c.buf)];
      if (c.hops > kMaxRelayHops) {
        lose(MacLossCause::kNone, c.holder, c.holder, buf.packets.size());
        continue;
      }
      if (!alive(c.holder)) {
        lose(MacLossCause::kSenderDown, c.holder, c.holder,
             buf.packets.size());
        continue;
      }
      const int target = protocol_.uplink_target(net_, c.holder, rng_);
      mac_frames_.push_back(
          make_frame(c.holder, target, buf.bits,
                     static_cast<std::uint32_t>(mac_chains_.size())));
      mac_chains_.push_back(c);
    }
    if (mac_frames_.empty()) break;
    mac_resolve(host);
    mac_active_.clear();
    for (std::size_t k = 0; k < mac_frames_.size(); ++k) {
      const MacFrame& f = mac_frames_[k];
      const UpChain& c = mac_chains_[k];
      if (!f.delivered) continue;  // the host already attributed the loss
      if (f.target == kBaseStationId) {
        // One slot of delay per relay hop taken on the way up.
        for (Packet& p : fused_[static_cast<std::size_t>(c.buf)].packets)
          record_delivery(p, global_slot_ + c.hops);
      } else {
        mac_active_.push_back(UpChain{f.target, c.buf, c.hops + 1});
      }
    }
  }
  mac_frames_.clear();
  mac_chains_.clear();
}
void SimRun::emit_round_metrics(int round, std::size_t alive_now,
                                std::size_t head_ct) {
  obs::MetricsRegistry& m = telemetry_->metrics();
  m.counter("sim.rounds").inc();
  emit_packet_counters();
  m.gauge("sim.alive").set(static_cast<double>(alive_now));
  m.histogram("sim.heads_per_round", 0.0, 64.0, 32)
      .add(static_cast<double>(head_ct));
  telemetry_->emit(obs::Event("round_end", round)
                       .with("alive", alive_now)
                       .with("heads", head_ct)
                       .with("residual_j", net_.total_residual_energy())
                       .with("generated", result_.generated)
                       .with("delivered", result_.delivered));
}

void SimRun::emit_packet_counters() {
  obs::MetricsRegistry& m = telemetry_->metrics();
  m.counter("sim.packets.generated")
      .inc(result_.generated - emitted_.generated);
  m.counter("sim.packets.delivered")
      .inc(result_.delivered - emitted_.delivered);
  m.counter("sim.packets.lost.link")
      .inc(result_.lost_link - emitted_.lost_link);
  m.counter("sim.packets.lost.queue")
      .inc(result_.lost_queue - emitted_.lost_queue);
  m.counter("sim.packets.lost.dead")
      .inc(result_.lost_dead - emitted_.lost_dead);
  emitted_ = {result_.generated, result_.delivered, result_.lost_link,
              result_.lost_queue, result_.lost_dead};
}

SimResult SimRun::run() {
  const std::size_t n = net_.size();
  for (int round = 0; round < cfg_.rounds; ++round) {
    cur_round_ = round;
    if (tracer_ != nullptr) tracer_->set_round(round);
    // Spans nest: "round" encloses the election/transmission/uplink/
    // maintenance child phases below (Chrome trace "X" events reconstruct
    // the hierarchy from containment on one track).
    obs::PhaseTimer round_span(tracer_, "round");
    // A mobile sink advances FIRST, on the main thread: everything this
    // round — routing distances, link draws — sees the new position, and
    // no Rng is consulted, so stream alignment holds.
    if (traj_) {
      bs_ = traj_->position(round);
      net_.set_bs(bs_);
    }
    // Faults fire strictly at the round boundary, before the auditor
    // snapshots state and before election — so every downstream phase (and
    // the auditor's down-at-round-start view) sees a consistent topology.
    if (fault_) {
      fault_->begin_round(net_, round, fade_ops_, crashed_scratch_);
      for (const FaultInjector::Fade& f : fade_ops_) {
        charge(f.node, EnergyUse::kFault, f.joules);
        result_.resilience.energy_faded_j += f.joules;
      }
      if (auditor_)
        for (const int id : crashed_scratch_) auditor_->on_fault_crash(id);
      gen_at_round_start_ = result_.generated;
      del_at_round_start_ = result_.delivered;
    }
    if (auditor_) auditor_->begin_round(net_, round, result_.energy);
    const std::vector<int>& heads = rs_.heads;
    {
      obs::PhaseTimer election_span(tracer_, "election");
      mobility_.step(net_, cfg_.death_line, rng_);
      protocol_.on_round_start(net_, round, rng_, result_.energy);
      // Retire the outgoing round's queue-slot mapping before the refresh
      // overwrites rs_.heads (flat mode keeps the identity mapping forever).
      if (!flat_)
        for (const int h : heads)
          rs_.queue_slot[static_cast<std::size_t>(h)] = -1;
      refresh_round_state();
      // Per-round TX precompute hook (no registry protocol overrides it;
      // instrumented wrappers time it); behaviorally invisible by contract.
      protocol_.prepare_tx(net_, cfg_.packet_bits);
    }
    result_.heads_per_round.add(static_cast<double>(heads.size()));
    if (auditor_) auditor_->on_heads_elected(net_, heads);
    if (telemetry_) {
      std::size_t alive_ct = 0;
      for (const std::uint8_t a : rs_.alive) alive_ct += a;
      telemetry_->emit(obs::Event("election", round)
                           .with("heads", heads.size())
                           .with("alive", alive_ct));
    }
    if (fault_ && !flat_) {
      // A fault wave that leaves no electable head strands every surviving
      // member for the round — the "orphaned members" resilience signal.
      // Gated on the protocol having clustered before, so head-less designs
      // (direct uplink) don't read as permanently orphaned.
      if (!heads.empty()) saw_heads_ = true;
      if (heads.empty() && saw_heads_) {
        std::uint64_t orphans = 0;
        for (std::size_t i = 0; i < n; ++i)
          if (rs_.alive[i] != 0) ++orphans;
        result_.resilience.orphaned_member_rounds += orphans;
      }
    }

    if (flat_) {
      // Flat routing: every node owns a persistent relay buffer (created
      // once; contents carry over rounds naturally).
      if (round == 0) {
        queues_.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          queues_.emplace_back(cfg_.queue_capacity);
          rs_.queue_slot[i] = static_cast<std::int32_t>(i);
        }
      }
    } else {
      // Cluster mode: slot i serves heads[i]; pools grow to the high-water
      // head count and are recycled (clear resets contents, keeps storage).
      while (queues_.size() < heads.size())
        queues_.emplace_back(cfg_.queue_capacity);
      if (fused_.size() < heads.size()) fused_.resize(heads.size());
      for (std::size_t i = 0; i < heads.size(); ++i) {
        rs_.queue_slot[static_cast<std::size_t>(heads[i])] =
            static_cast<std::int32_t>(i);
        queues_[i].clear();
        fused_[i].bits = 0.0;
        fused_[i].packets.clear();
      }
    }

    injections_.swap(carryover_);
    carryover_.clear();

    // One scoped-phase slot reused across the sequential phases below:
    // each emplace() closes the previous span before opening the next.
    std::optional<obs::PhaseTimer> phase(std::in_place, tracer_,
                                         "transmission");
    for (int slot = 0; slot < cfg_.slots_per_round; ++slot) {
      // (a) flat-mode relay service runs FIRST and two-phase (stage all
      // pops, then forward), so every relay hop costs at least one slot —
      // otherwise id-ordered relays would chain a packet to the BS within
      // a single slot.
      if (flat_) {
        staged_.clear();
        for (std::size_t i = 0; i < n; ++i) {
          if (rs_.alive[i] == 0) continue;
          PacketQueue& q = queues_[i];
          for (int s = 0; s < cfg_.service_per_slot; ++s) {
            auto p = q.pop();
            if (!p) break;
            staged_.push_back(Stranded{static_cast<int>(i), *p});
          }
        }
        for (Stranded& s : staged_) deliver_from(s.holder, s.packet);
      }
      // (b) stranded packets from the previous round re-enter first.
      if (slot == 0) {
        for (Stranded& s : injections_) deliver_from(s.holder, s.packet);
        injections_.clear();
      }
      // (b) fresh Poisson arrivals.
      traffic_.arrivals_into(global_slot_, rng_, arrivals_);
      for (const std::size_t src : arrivals_) {
        const int id = static_cast<int>(src);
        if (!alive(id)) continue;  // dead sensors stop sensing
        Packet p;
        p.id = next_packet_id_++;
        p.src = id;
        p.bits = cfg_.packet_bits;
        p.gen_slot = global_slot_;
        ++result_.generated;
        deliver_from(id, p);
      }
      // (c) MAC contention phase: resolve the frames staged by stages
      // (a)-(b) before heads service their queues, so packet visibility
      // matches the ideal path (this slot's deliveries are serviceable
      // this slot).
      if (mac_) mac_resolve_slot();
      // (d) cluster-mode head service: aggregate into the fused buffer.
      if (!flat_) {
        for (std::size_t i = 0; i < heads.size(); ++i) {
          const int h = heads[i];
          if (!alive(h)) continue;
          PacketQueue& q = queues_[i];
          HeadBuffer& buf = fused_[i];
          for (int s = 0; s < cfg_.service_per_slot; ++s) {
            auto p = q.pop();
            if (!p) break;
            charge(h, EnergyUse::kAggregate,
                   radio_.aggregation_energy(p->bits));
            if (cfg_.aggregation == Aggregation::kRatioCompress) {
              buf.bits += p->bits * cfg_.compression;
            } else {
              buf.bits = cfg_.packet_bits;  // one fixed-size fused summary
            }
            buf.packets.push_back(*p);
          }
        }
      }
      // (e) idle listening drain.
      if (cfg_.idle_listen_j_per_slot > 0.0)
        drain_operational(EnergyUse::kIdle, cfg_.idle_listen_j_per_slot);
      ++global_slot_;
    }
    phase.emplace(tracer_, "uplink");

    if (!flat_) {
      // (d) round-end uplinks.
      if (mac_) {
        mac_deliver_uplinks(heads);
      } else {
        for (std::size_t i = 0; i < heads.size(); ++i)
          deliver_aggregate(heads[i], fused_[i]);
      }

      // (e) leftover cache content strands to next round (the ex-head
      // re-routes it as an ordinary member), unless the holder died.
      for (std::size_t i = 0; i < heads.size(); ++i) {
        const int h = heads[i];
        PacketQueue& q = queues_[i];
        while (auto p = q.pop()) {
          if (alive(h))
            carryover_.push_back(Stranded{h, *p});
          else
            lose(MacLossCause::kSenderDown, h, h, 1);
        }
      }
    }

    phase.emplace(tracer_, "maintenance");
    // Fault-down nodes can't run their harvester either — their batteries
    // stay exactly frozen for the whole down window (audit invariant d2).
    // Every restored joule is credited to the EnergyUse::kHarvest bucket
    // (a CREDIT entry, excluded from EnergyLedger::total, charged without
    // node attribution so per-node books stay drain-only) and reported to
    // the auditor, which reconciles bucket-vs-restored per round.
    const bool env_harvest = env_ && env_->harvest_active();
    if (cfg_.harvest_per_round > 0.0 || env_harvest) {
      for (SensorNode& node : net_.nodes()) {
        if (!node.operational(cfg_.death_line)) continue;
        double amount = cfg_.harvest_per_round;
        if (env_harvest) amount += env_->harvest_rate(node.pos);
        if (amount <= 0.0) continue;
        const double restored = node.battery.recharge(amount);
        result_.energy.charge(EnergyUse::kHarvest, restored);
        sync_battery(node.id, node.battery);
        if (auditor_) auditor_->on_harvest(node.id, restored);
      }
    }

    protocol_.on_round_end(net_, round);
    ++result_.rounds_completed;

    if (auditor_) {
      std::uint64_t in_flight = carryover_.size();
      const std::size_t active = flat_ ? queues_.size() : heads.size();
      for (std::size_t i = 0; i < active; ++i) in_flight += queues_[i].size();
      auditor_->end_round(net_, result_.energy, result_, in_flight);
    }
    phase.reset();

    // (f) lifespan bookkeeping.
    const std::size_t alive_now = net_.alive_count(cfg_.death_line);
    if (fault_) {
      std::uint32_t down = 0;
      for (const SensorNode& node : net_.nodes())
        if (!node.up) ++down;
      result_.resilience.per_round.push_back(RoundResilience{
          round, result_.generated - gen_at_round_start_,
          result_.delivered - del_at_round_start_,
          fault_->disruptions_this_round(), !fault_->bs_up(),
          fault_->link_factor() < 1.0, down});
    }
    if (mac_) {
      const MacCounters delta = mac_->totals().minus(mac_prev_);
      mac_prev_ = mac_->totals();
      result_.mac.per_round.push_back(MacRound{round, delta});
      if (telemetry_) emit_mac_metrics(delta);
    }
    if (cfg_.trace.record) {
      result_.trace.push_back(RoundStats{
          round, alive_now, heads.size(), net_.total_residual_energy(),
          result_.generated, result_.delivered});
    }
    if (telemetry_) emit_round_metrics(round, alive_now, heads.size());
    if (result_.first_death_round < 0 && alive_now < n)
      result_.first_death_round = round;
    if (result_.half_death_round < 0 && alive_now <= n / 2)
      result_.half_death_round = round;
    if (result_.last_death_round < 0 && alive_now == 0)
      result_.last_death_round = round;
    if (alive_now == 0) break;
    if (cfg_.trace.stop_at_first_death && result_.first_death_round >= 0)
      break;
  }

  // Packets still stranded when the run ends never reached the BS.
  result_.lost_dead += carryover_.size();
  if (flat_) {
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      const int id = static_cast<int>(i);
      lose(MacLossCause::kSenderDown, id, id, queues_[i].size());
    }
  }
  if (telemetry_) emit_packet_counters();

  if (fault_) {
    ResilienceStats& res = result_.resilience;
    res.crashes = fault_->crashes();
    res.stuns = fault_->stuns();
    res.blackouts = fault_->blackouts();
    res.fades = fault_->fades();
    res.bs_outage_rounds = fault_->bs_outage_rounds();
    res.degraded_rounds = fault_->degraded_rounds();
    res.recovery_rounds = mean_recovery_rounds(res.per_round);
  }

  result_.per_node_consumed.reserve(n);
  result_.per_node_rate.reserve(n);
  for (const SensorNode& node : net_.nodes()) {
    result_.per_node_consumed.push_back(node.battery.consumed());
    result_.per_node_rate.push_back(node.battery.consumption_rate());
    result_.total_energy_consumed += node.battery.consumed();
  }
  if (mac_) result_.mac.totals = mac_->totals();
  result_.q_evaluations = protocol_.learning_updates();
  if (auditor_) {
    auditor_->finalize(net_, result_.energy, result_);
    result_.audit = auditor_->report();
  }
  return result_;
}

}  // namespace

SimResult run_simulation(Network& net, ClusteringProtocol& protocol,
                         const SimConfig& cfg, Rng& rng) {
  SimRun run(net, protocol, cfg, rng);
  return run.run();
}

}  // namespace qlec
