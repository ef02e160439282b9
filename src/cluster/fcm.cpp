#include "cluster/fcm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace qlec {

namespace detail {

double fcm_pow(double x, double y) {
  // x * x is the correctly rounded square. glibc's pow is within 0.54 ULP,
  // so when the exact square lies within 0.45 ULP of x * x (the residual
  // fma(x, x, -x * x) is exact here), the other neighbour is at least 0.55
  // ULP away and pow returns x * x too. The ULP is the spacing below the
  // square, the finer one at a power of two. The range keeps the residual
  // clear of underflow and pow's result normal. The fallback keeps the
  // runtime y: a literal pow(x, 2.0) is folded into x * x by the compiler.
  if (y == 2.0) {
    const double sq = x * x;
    if (sq >= 0x1p-960 && sq <= std::numeric_limits<double>::max()) {
      const double ulp =
          sq - std::bit_cast<double>(std::bit_cast<std::uint64_t>(sq) - 1);
      if (std::fabs(std::fma(x, x, -sq)) <= 0.45 * ulp) return sq;
    }
  }
  return std::pow(x, y);
}

}  // namespace detail

using detail::fcm_pow;

FcmResult fuzzy_cmeans(const std::vector<Vec3>& points, std::size_t k,
                       Rng& rng, const FcmConfig& cfg) {
  FcmResult result;
  if (points.empty()) return result;
  k = std::clamp<std::size_t>(k, 1, points.size());
  const double m = std::max(cfg.fuzzifier, 1.0 + 1e-6);
  const double exponent = 2.0 / (m - 1.0);
  const std::size_t n = points.size();

  // Random row-stochastic membership init.
  result.membership.assign(n, std::vector<double>(k, 0.0));
  for (auto& row : result.membership) {
    double sum = 0.0;
    for (double& u : row) {
      u = rng.uniform(0.01, 1.0);
      sum += u;
    }
    for (double& u : row) u /= sum;
  }
  result.centers.assign(k, Vec3{});
  // One point's distances to every center, squared until the coincident
  // check is done.
  std::vector<double> d(k);

  for (std::size_t iter = 0; iter < cfg.max_iterations; ++iter) {
    result.iterations = static_cast<int>(iter + 1);
    // Center update: c_j = sum_i u_ij^m x_i / sum_i u_ij^m.
    for (std::size_t c = 0; c < k; ++c) {
      Vec3 num;
      double den = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double w = fcm_pow(result.membership[i][c], m);
        num += points[i] * w;
        den += w;
      }
      result.centers[c] = den > 0.0 ? num / den : points[c % n];
    }

    // Membership update: u_ij = 1 / sum_l (d_ij / d_il)^(2/(m-1)).
    double max_change = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Handle coincident point/center: full membership there.
      std::ptrdiff_t exact = -1;
      for (std::size_t c = 0; c < k; ++c) {
        d[c] = distance2(points[i], result.centers[c]);
        if (exact < 0 && d[c] < 1e-24) exact = static_cast<std::ptrdiff_t>(c);
      }
      if (exact < 0)
        for (double& dc : d) dc = std::sqrt(dc);
      for (std::size_t c = 0; c < k; ++c) {
        double u_new;
        if (exact >= 0) {
          u_new = (static_cast<std::ptrdiff_t>(c) == exact) ? 1.0 : 0.0;
        } else {
          // The l == c term is pow(d_ic / d_ic, exponent): exactly 1 while
          // d_ic is finite, and d_ic > 0 here.
          const double self =
              std::isfinite(d[c]) ? 1.0 : fcm_pow(d[c] / d[c], exponent);
          double denom = 0.0;
          for (std::size_t l = 0; l < k; ++l)
            denom += l == c ? self : fcm_pow(d[c] / d[l], exponent);
          u_new = 1.0 / denom;
        }
        max_change =
            std::max(max_change, std::fabs(u_new - result.membership[i][c]));
        result.membership[i][c] = u_new;
      }
    }
    if (max_change < cfg.tolerance) break;
  }

  // Objective J_m.
  result.objective = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c)
      result.objective += fcm_pow(result.membership[i][c], m) *
                          distance2(points[i], result.centers[c]);
  return result;
}

std::vector<std::size_t> fcm_select_heads(
    const FcmResult& fcm, const std::vector<double>& residual_energy,
    const std::vector<double>& initial_energy, double fuzzifier) {
  std::vector<std::size_t> heads;
  const std::size_t n = fcm.membership.size();
  if (n == 0 || fcm.centers.empty()) return heads;
  const std::size_t k = fcm.centers.size();
  std::vector<bool> taken(n, false);
  heads.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    double best_score = -1.0;
    std::size_t best = 0;
    bool found = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      const double e_frac =
          (i < residual_energy.size() && i < initial_energy.size() &&
           initial_energy[i] > 0.0)
              ? residual_energy[i] / initial_energy[i]
              : 0.0;
      const double score =
          fcm_pow(fcm.membership[i][c], fuzzifier) * e_frac;
      if (score > best_score) {
        best_score = score;
        best = i;
        found = true;
      }
    }
    if (!found) break;
    taken[best] = true;
    heads.push_back(best);
  }
  return heads;
}

}  // namespace qlec
