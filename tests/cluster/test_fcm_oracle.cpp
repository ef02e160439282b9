// fuzzy_cmeans hoists each point's distances out of the membership loop,
// adds the l == c term as 1.0 and squares without libm where that gives
// pow's own bits. The oracle below is the loop it replaced, kept verbatim:
// every distance recomputed inside the c loop and every power a std::pow
// call. Both must return the same centers, memberships, objective and
// iteration count, bit for bit. The square helper is also checked on its
// own against std::pow, near rounding midpoints and at the range's ends.
#include "cluster/fcm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "geom/sampling.hpp"

namespace qlec {
namespace {

FcmResult oracle_fuzzy_cmeans(const std::vector<Vec3>& points, std::size_t k,
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

  for (std::size_t iter = 0; iter < cfg.max_iterations; ++iter) {
    result.iterations = static_cast<int>(iter + 1);
    // Center update: c_j = sum_i u_ij^m x_i / sum_i u_ij^m.
    for (std::size_t c = 0; c < k; ++c) {
      Vec3 num;
      double den = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double w = std::pow(result.membership[i][c], m);
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
        if (distance2(points[i], result.centers[c]) < 1e-24) {
          exact = static_cast<std::ptrdiff_t>(c);
          break;
        }
      }
      for (std::size_t c = 0; c < k; ++c) {
        double u_new;
        if (exact >= 0) {
          u_new = (static_cast<std::ptrdiff_t>(c) == exact) ? 1.0 : 0.0;
        } else {
          const double d_ic = distance(points[i], result.centers[c]);
          double denom = 0.0;
          for (std::size_t l = 0; l < k; ++l) {
            const double d_il = distance(points[i], result.centers[l]);
            denom += std::pow(d_ic / d_il, exponent);
          }
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
      result.objective += std::pow(result.membership[i][c], m) *
                          distance2(points[i], result.centers[c]);
  return result;
}

/// Equal bit patterns, or both NaN: which NaN an operation propagates is
/// left to operand order, which the compiler may pick per build.
bool same_bits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

void expect_same_result(const FcmResult& got, const FcmResult& want,
                        const std::string& what) {
  ASSERT_EQ(got.iterations, want.iterations) << what;
  ASSERT_TRUE(same_bits(got.objective, want.objective))
      << what << ": objective " << got.objective << " vs " << want.objective;
  ASSERT_EQ(got.centers.size(), want.centers.size()) << what;
  for (std::size_t c = 0; c < want.centers.size(); ++c)
    ASSERT_TRUE(same_bits(got.centers[c].x, want.centers[c].x) &&
                same_bits(got.centers[c].y, want.centers[c].y) &&
                same_bits(got.centers[c].z, want.centers[c].z))
        << what << ": center " << c;
  ASSERT_EQ(got.membership.size(), want.membership.size()) << what;
  for (std::size_t i = 0; i < want.membership.size(); ++i) {
    ASSERT_EQ(got.membership[i].size(), want.membership[i].size()) << what;
    for (std::size_t c = 0; c < want.membership[i].size(); ++c)
      ASSERT_TRUE(same_bits(got.membership[i][c], want.membership[i][c]))
          << what << ": u[" << i << "][" << c << "] "
          << got.membership[i][c] << " vs " << want.membership[i][c];
  }
}

enum class Layout { kUniform, kDuplicates, kCoincident, kBlobs, kHuge };

std::vector<Vec3> make_points(Layout layout, std::size_t n, Rng& rng) {
  std::vector<Vec3> pts = sample_uniform(n, Aabb::cube(100.0), rng);
  switch (layout) {
    case Layout::kUniform:
      break;
    case Layout::kDuplicates:
      // About a third of the points repeat an earlier one exactly, so
      // centers land on points and the coincident branch runs.
      for (std::size_t i = 1; i < n; ++i)
        if (rng.uniform_int(std::uint64_t{3}) == 0)
          pts[i] = pts[rng.uniform_int(std::uint64_t{i})];
      break;
    case Layout::kCoincident:
      std::fill(pts.begin(), pts.end(), pts[0]);
      break;
    case Layout::kBlobs:
      // Tight, far-apart blobs: memberships run down towards underflow.
      for (Vec3& p : pts) {
        const double shift = 1e4 * static_cast<double>(rng.uniform_int(
                                       std::uint64_t{3}));
        p = Vec3{p.x * 1e-3 + shift, p.y * 1e-3, p.z * 1e-3 - shift};
      }
      break;
    case Layout::kHuge:
      // Squared distances overflow to inf: the non-finite path.
      for (Vec3& p : pts) p *= 1e200;
      break;
  }
  return pts;
}

TEST(FcmOracle, MatchesReferenceLoopBitForBit) {
  const double fuzzifiers[] = {2.0, 1.2, 1.5, 3.0, 1.0 + 1e-6};
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, 12, 40, 60, 100, 200};
  const Layout layouts[] = {Layout::kUniform, Layout::kDuplicates,
                            Layout::kCoincident, Layout::kBlobs,
                            Layout::kHuge};
  Rng draw(29);
  int cases = 0;
  for (const std::size_t n : sizes) {
    // Every k up to two past n for small n (k > n is clamped); a handful
    // of cluster counts for the large ones, where the loop is k^2 per point.
    std::vector<std::size_t> ks;
    if (n <= 12) {
      for (std::size_t k = 1; k <= n + 2; ++k) ks.push_back(k);
    } else {
      ks = {1, 2, 3, 5, 8};
      if (n <= 40) ks.push_back(n + 1);
    }
    for (const std::size_t k : ks) {
      for (const Layout layout : layouts) {
        const std::uint64_t seed = draw.next_u64();
        const double m = fuzzifiers[draw.uniform_int(std::uint64_t{5})];
        FcmConfig cfg;
        cfg.fuzzifier = m;
        // The large cases stop early so the oracle stays quick.
        if (n >= 100) cfg.max_iterations = 10;

        Rng geom(seed);
        const std::vector<Vec3> pts = make_points(layout, n, geom);
        Rng rng_got(seed + 1), rng_want(seed + 1);
        const FcmResult got = fuzzy_cmeans(pts, k, rng_got, cfg);
        const FcmResult want = oracle_fuzzy_cmeans(pts, k, rng_want, cfg);
        expect_same_result(got, want,
                           "n=" + std::to_string(n) + " k=" +
                               std::to_string(k) + " m=" + std::to_string(m) +
                               " layout=" +
                               std::to_string(static_cast<int>(layout)));
        ASSERT_EQ(rng_got.next_u64(), rng_want.next_u64());
        ++cases;
      }
    }
  }
  // Every fuzzifier once more, on the simulator's own shape (N = 40, k = 3).
  for (const double m : fuzzifiers) {
    Rng geom(7);
    const std::vector<Vec3> pts = make_points(Layout::kUniform, 40, geom);
    FcmConfig cfg;
    cfg.fuzzifier = m;
    Rng rng_got(8), rng_want(8);
    expect_same_result(fuzzy_cmeans(pts, 3, rng_got, cfg),
                       oracle_fuzzy_cmeans(pts, 3, rng_want, cfg),
                       "N=40 k=3 m=" + std::to_string(m));
    ++cases;
  }
  EXPECT_GE(cases, 300);
}

TEST(FcmOracle, PowHelperMatchesLibmPow) {
  // The exponent is read through a volatile: a literal 2.0 lets the
  // compiler fold std::pow(x, 2.0) into x * x, and the check would be moot.
  volatile double runtime_y = 2.0;
  const double two = runtime_y;
  std::vector<double> xs = {
      // Squares within a hair of a rounding midpoint: x * x is one
      // neighbour of the exact square, glibc's pow the other.
      0x1.95e594598084p+19, 0x1.f8c7756af0f14p+21, 0x1.0817b47bd3df8p-29,
      0x1.39491914f4d69p-7, 0x1.02870337cfa07p+17,
      // Zeros, subnormals, the normal range's ends, non-finite values.
      0.0, -0.0, std::numeric_limits<double>::denorm_min(), 0x1p-1070,
      std::numeric_limits<double>::min(), 0x1p-480, 0x1.0000000000001p-480,
      0x1.fffffffffffffp-481, std::numeric_limits<double>::max(), 0x1p+511,
      0x1.fffffffffffffp+511, 0x1p+512,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), 1.0, -1.0, 0.5, 3.0};
  Rng rng(2029);
  for (int i = 0; i < 400000; ++i) {
    // Memberships in (0, 1] and distance ratios from 1e-6 to 1e6.
    xs.push_back(1.0 - rng.uniform01());
    xs.push_back(std::exp(rng.uniform(std::log(1e-6), std::log(1e6))));
  }
  const std::size_t n = xs.size();
  for (std::size_t i = 0; i < n; ++i) xs.push_back(-xs[i]);

  std::size_t checked = 0;
  for (const double y : {two, two * 5.0, two * 0.5, two * 1e6, two * 0.6}) {
    for (const double x : xs) {
      const double got = detail::fcm_pow(x, y);
      const double want = std::pow(x, y);
      ASSERT_TRUE(same_bits(got, want))
          << std::hexfloat << "fcm_pow(" << x << ", " << y << ") = " << got
          << ", pow gives " << want;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 5 * xs.size());
}

}  // namespace
}  // namespace qlec
