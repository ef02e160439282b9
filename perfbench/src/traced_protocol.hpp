// A ClusteringProtocol decorator that times every hook the simulator calls
// and forwards every virtual to the wrapped protocol unchanged, so a traced
// run makes the same decisions, draws and digests as an untraced one. The
// simulator calls protocol hooks only from its own thread, so the plain
// accumulators need no synchronisation.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/protocol.hpp"

namespace perfbench {

/// Busy time and call count of one hook.
struct HookTime {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

struct HookTimes {
  HookTime round_start;  ///< on_round_start (election)
  HookTime route;
  HookTime prepare_tx;
  HookTime feedback;  ///< on_tx_result + on_uplink_result
  HookTime uplink_target;
  HookTime round_end;

  std::uint64_t total_ns() const noexcept {
    return round_start.ns + route.ns + prepare_tx.ns + feedback.ns +
           uplink_target.ns + round_end.ns;
  }

  HookTimes& operator+=(const HookTimes& o) noexcept {
    const auto add = [](HookTime& mine, const HookTime& theirs) {
      mine.calls += theirs.calls;
      mine.ns += theirs.ns;
    };
    add(round_start, o.round_start);
    add(route, o.route);
    add(prepare_tx, o.prepare_tx);
    add(feedback, o.feedback);
    add(uplink_target, o.uplink_target);
    add(round_end, o.round_end);
    return *this;
  }
};

class TracedProtocol final : public qlec::ClusteringProtocol {
 public:
  explicit TracedProtocol(std::unique_ptr<qlec::ClusteringProtocol> inner)
      : inner_(std::move(inner)) {}

  const HookTimes& times() const noexcept { return times_; }

  std::string name() const override { return inner_->name(); }
  bool flat_routing() const override { return inner_->flat_routing(); }

  void on_round_start(qlec::Network& net, int round, qlec::Rng& rng,
                      qlec::EnergyLedger& ledger) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_round_start(net, round, rng, ledger);
    add(times_.round_start, t0);
  }

  int route(const qlec::Network& net, int src, double bits,
            qlec::Rng& rng) override {
    const Clock::time_point t0 = Clock::now();
    const int target = inner_->route(net, src, bits, rng);
    add(times_.route, t0);
    return target;
  }

  int uplink_target(const qlec::Network& net, int head,
                    qlec::Rng& rng) override {
    const Clock::time_point t0 = Clock::now();
    const int target = inner_->uplink_target(net, head, rng);
    add(times_.uplink_target, t0);
    return target;
  }

  void on_tx_result(const qlec::Network& net, int src, int target,
                    bool success) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_tx_result(net, src, target, success);
    add(times_.feedback, t0);
  }

  void on_uplink_result(const qlec::Network& net, int head,
                        bool success) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_uplink_result(net, head, success);
    add(times_.feedback, t0);
  }

  void on_round_end(qlec::Network& net, int round) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_round_end(net, round);
    add(times_.round_end, t0);
  }

  std::size_t learning_updates() const override {
    return inner_->learning_updates();
  }

  void prepare_tx(const qlec::Network& net, double packet_bits) override {
    const Clock::time_point t0 = Clock::now();
    inner_->prepare_tx(net, packet_bits);
    add(times_.prepare_tx, t0);
  }

  void set_exec(qlec::ExecContext* exec) override {
    ClusteringProtocol::set_exec(exec);
    inner_->set_exec(exec);
  }

  void set_telemetry(qlec::obs::Telemetry* telemetry) override {
    ClusteringProtocol::set_telemetry(telemetry);
    inner_->set_telemetry(telemetry);
  }

 private:
  using Clock = std::chrono::steady_clock;

  static void add(HookTime& h, Clock::time_point t0) {
    h.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
    ++h.calls;
  }

  std::unique_ptr<qlec::ClusteringProtocol> inner_;
  HookTimes times_;
};

}  // namespace perfbench
