// Exact dynamic-programming solver for finite MDPs: the test oracle that
// validates the model-based Q backup (TwoOutcomeTransition, QlecRouter in
// core/qlec_routing.hpp) against ground truth (Bellman optimality, Eq. 13-15
// of the paper) on small instances.
#pragma once

#include <cstddef>
#include <vector>

namespace qlec {

/// One successor branch of taking action a in state s.
struct MdpBranch {
  std::size_t next_state = 0;
  double probability = 0.0;
  double reward = 0.0;
};

/// Tabular MDP: transitions[s][a] lists the successor branches (their
/// probabilities should sum to 1 for valid (s, a) pairs; an empty list
/// marks the action unavailable in that state).
struct Mdp {
  std::size_t states = 0;
  std::size_t actions = 0;
  std::vector<std::vector<std::vector<MdpBranch>>> transitions;
  std::vector<bool> terminal;  ///< V(s) pinned to 0

  static Mdp make(std::size_t states, std::size_t actions);
  void add_transition(std::size_t s, std::size_t a, std::size_t s2,
                      double probability, double reward);
};

struct ValueIterationResult {
  std::vector<double> v;            ///< optimal state values
  std::vector<std::size_t> policy;  ///< greedy action per state
  int iterations = 0;
  double residual = 0.0;  ///< final max |Bellman update|
};

/// Standard value iteration to `tolerance` (sup-norm) or `max_iterations`.
ValueIterationResult value_iteration(const Mdp& mdp, double gamma,
                                     double tolerance = 1e-10,
                                     int max_iterations = 100000);

/// Q*(s, a) computed from a converged V (Bellman backup); the quantity the
/// paper's Eq. 15 approximates online.
double q_from_values(const Mdp& mdp, const std::vector<double>& v,
                     std::size_t s, std::size_t a, double gamma);

}  // namespace qlec
