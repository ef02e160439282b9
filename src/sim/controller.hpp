// The centralized-controller seam (DESIGN.md §15): a Controller is a
// base-station-side object the simulator's round loop consults at every
// round boundary, with read-only visibility of the *global* network state,
// to select that round's clustering. This is the structural opposite of the
// distributed protocols (LEACH/DEEC/HEED...), where each node decides from
// local state: here the BS observes everything and dictates the head set.
//
// Contract:
//   - `select_heads` is called exactly once per round, on the main thread,
//     before any per-node phase. It must fill `heads` with ids of nodes
//     that are operational above `death_line`; RNG draws happen only here
//     and in a data-independent order, so the digest contract of the
//     round core is preserved. The controller never
//     mutates the network — the adapting protocol stamps is_head /
//     last_head_round from the returned set.
//   - `on_round_end` is called once after the round's uplinks settle, with
//     the post-round state; it is RNG-free and is where a learning
//     controller does its value backup.
//
// Two implementations ship: a trivial passthrough (classic LEACH rotation
// run centrally, so the seam is testable independent of any learning
// logic) and the RL-lite controller of LEACH-RLC (arXiv 2401.15767), a
// tabular Q-learner over coarse global-energy states that tunes the
// cluster-count budget to minimize energy burn.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "util/rng.hpp"

namespace qlec {

/// Which Controller implementation `make_controller` builds. Config-file
/// tokens: the enum tables in config/schema.cpp.
enum class ControllerKind { kRlLite, kPassthrough };

/// Hyper-parameters for the BS-side controller (config: protocol.controller).
struct ControllerOptions {
  ControllerKind kind = ControllerKind::kRlLite;
  double alpha = 0.2;    ///< Q-table learning rate, [0, 1]
  double gamma = 0.9;    ///< discount factor, [0, 1]
  double epsilon = 0.1;  ///< exploration probability, [0, 1]

  friend bool operator==(const ControllerOptions&, const ControllerOptions&) =
      default;
};

class Controller {
 public:
  virtual ~Controller() = default;

  virtual std::string name() const = 0;

  /// Selects the head set for `round` from the global state. Clears and
  /// fills `heads` with operational node ids in ascending order; an empty
  /// result means "no head" and members fall back to direct BS uplink.
  virtual void select_heads(const Network& net, int round, double death_line,
                            Rng& rng, std::vector<int>& heads) = 0;

  /// Post-round feedback with the settled global state. RNG-free.
  virtual void on_round_end(const Network& net, int round) {
    (void)net;
    (void)round;
  }

  /// Value/Q backups performed so far (0 for non-learning controllers).
  virtual std::size_t updates() const { return 0; }
};

/// Classic LEACH rotation evaluated centrally: the same threshold draws a
/// distributed LEACH network would make, replayed at the BS in id order
/// (one uniform01 per eligible node, max-energy fallback when no draw
/// wins). Exists so the Controller seam is testable with zero learning
/// state in the loop.
class PassthroughController final : public Controller {
 public:
  explicit PassthroughController(double p) : p_(p) {}

  std::string name() const override { return "passthrough"; }
  void select_heads(const Network& net, int round, double death_line,
                    Rng& rng, std::vector<int>& heads) override;

 private:
  double p_;
};

/// RL-lite controller of LEACH-RLC (arXiv 2401.15767): a tabular
/// Q-learner whose state is a coarse bucket of the network's residual
/// energy fraction and whose action scales the cluster-count budget k by a
/// fixed multiplier. Heads are the top-k residual-energy operational nodes
/// (ties to the lower id). Reward is the negative per-round energy drop
/// normalized by the initial budget, so the controller learns the head
/// budget that minimizes energy burn as the network drains.
class RlLiteController final : public Controller {
 public:
  /// Number of residual-energy-fraction buckets (states).
  static constexpr std::size_t kStates = 4;
  /// Cluster-count multipliers (actions) applied to the base budget.
  static constexpr std::array<double, 4> kMultipliers = {0.5, 1.0, 1.5,
                                                         2.0};

  RlLiteController(std::size_t base_k, const ControllerOptions& opt)
      : base_k_(base_k == 0 ? 1 : base_k), opt_(opt) {}

  std::string name() const override { return "rl-lite"; }
  void select_heads(const Network& net, int round, double death_line,
                    Rng& rng, std::vector<int>& heads) override;
  void on_round_end(const Network& net, int round) override;
  std::size_t updates() const override { return updates_; }

  /// Current Q-value for (state, action); exposed for the seam tests.
  double q_value(std::size_t state, std::size_t action) const {
    return q_.at(state).at(action);
  }

 private:
  static std::size_t state_bucket(const Network& net);

  std::size_t base_k_;
  ControllerOptions opt_;
  std::array<std::array<double, kMultipliers.size()>, kStates> q_{};
  std::size_t updates_ = 0;
  // Pending (state, action) awaiting its end-of-round backup.
  bool pending_ = false;
  std::size_t state_ = 0;
  std::size_t action_ = 0;
  double residual_before_ = 0.0;
};

/// Builds the controller `opt.kind` names. `base_k` is the resolved
/// cluster-count budget and `p` the per-node head probability k/N (used by
/// the passthrough rotation).
std::unique_ptr<Controller> make_controller(const ControllerOptions& opt,
                                            std::size_t base_k, double p);

}  // namespace qlec
