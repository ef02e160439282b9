// The Cluster Head Selection Phase of QLEC: the improved DEEC election of
// Section 3.1 / Algorithms 2-3. On top of plain DEEC it adds
//   (1) the minimum-energy threshold Eq. 4
//       E_i,th(r) = [1 - (r/R)^2] * E_i,initial, and
//   (2) HELLO-based redundancy reduction within the coverage radius d_c:
//       of two heads within d_c, the lower-energy one quits (Algorithm 3).
#pragma once

#include <vector>

#include "net/network.hpp"
#include "util/rng.hpp"

namespace qlec {

/// Eq. 4 energy threshold. Negative r clamps to 0; r >= R yields 0 (any
/// residual energy qualifies at end of life).
double deec_energy_threshold(double initial_energy, int r, int total_rounds);

struct ImprovedDeecConfig {
  double p_opt = 0.05;        ///< k_opt / N
  int total_rounds = 20;      ///< R in Eq. 2 / Eq. 4
  double coverage_radius = 0; ///< d_c from Eq. 5
  bool use_energy_threshold = true;  ///< improvement (1)
  bool reduce_redundancy = true;     ///< improvement (2)
  bool use_estimated_average = true; ///< Eq. 2 estimate vs measured average
  /// Section 3.1's replacement rule, "choose another node up to the demand
  /// to replace it": after the draw and Algorithm 3, draft the
  /// highest-energy qualified nodes (outside d_c of existing heads) until
  /// the head count reaches round(p_opt * N). Keeps k near k_opt, which is
  /// the point of the improved election.
  bool top_up_to_k = true;
};

struct ElectionStats {
  int alive = 0;
  int eligible = 0;          ///< passed rotation + energy threshold
  int elected = 0;           ///< won the z < T(b_i) draw
  int pruned = 0;            ///< removed by Algorithm 3
  int drafted = 0;           ///< added by the replacement (top-up) rule
  int final_heads = 0;
  bool used_fallback = false;  ///< election was empty; max-energy node drafted
};

/// One improved-DEEC election round over nodes above `death_line`. Sets
/// is_head / last_head_round on the final head set and returns its ids.
/// The HELLO control-plane energy is NOT charged here (the protocol layer
/// charges it so the cost can be attributed to the ledger).
std::vector<int> improved_deec_elect(Network& net,
                                     const ImprovedDeecConfig& cfg, int round,
                                     Rng& rng, double death_line,
                                     ElectionStats* stats = nullptr);

}  // namespace qlec
