// Fuzzy C-Means clustering (Bezdek). Substrate for the paper's comparator:
// "An FCM-based scheme [Wang et al., WCNC 2018] divides the WSN into
// different hierarchies based on the distance to the BS and a dynamic
// multi-hop routing algorithm is designed."
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster_types.hpp"
#include "util/rng.hpp"

namespace qlec {

struct FcmConfig {
  double fuzzifier = 2.0;  ///< m > 1; 2 is the conventional choice
  std::size_t max_iterations = 100;
  double tolerance = 1e-5;  ///< max membership change to declare convergence
};

struct FcmResult {
  std::vector<Vec3> centers;
  /// membership[i][c] = u_ic in [0,1], rows sum to 1.
  std::vector<std::vector<double>> membership;
  double objective = 0.0;  ///< J_m = sum u^m d^2
  int iterations = 0;
};

/// Runs FCM from a random membership initialization. k clamped to
/// [1, points.size()].
FcmResult fuzzy_cmeans(const std::vector<Vec3>& points, std::size_t k,
                       Rng& rng, const FcmConfig& cfg = {});

/// Per the WCNC'18 scheme, the cluster head of cluster c is the member
/// maximizing membership weighted by residual energy:
/// score_i = u_ic^m * (E_i / E_init). Returns one point index per center;
/// duplicates are resolved greedily (a node heads at most one cluster).
std::vector<std::size_t> fcm_select_heads(
    const FcmResult& fcm, const std::vector<double>& residual_energy,
    const std::vector<double>& initial_energy, double fuzzifier = 2.0);

namespace detail {
/// std::pow(x, y), bit for bit. A square (y == 2) skips the libm call when
/// x * x is certain to be pow's own result. Every power in fcm.cpp goes
/// through it; declared here for its test.
double fcm_pow(double x, double y);
}  // namespace detail

}  // namespace qlec
