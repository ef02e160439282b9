// Differential battery pinning every qlec::simd backend to the scalar
// oracle BIT-FOR-BIT: randomized inputs across sizes that exercise full
// vector blocks, misaligned tails, and empty lanes, plus
// adversarial values — denormals, NaNs, ±inf, -0.0, negative distances —
// and the QLEC_SIMD forcing values. Comparison is on the raw bit pattern
// (memcmp of the doubles), so even NaN payloads must agree, except in
// q_scan's output, where a NaN lane need only be NaN.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace qlec::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

// Sizes straddling every vector-width boundary: empty, sub-width, exact
// blocks, and block+tail for the 4-wide AVX2 lanes.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 257};

std::vector<Backend> vector_backends() {
  std::vector<Backend> out;
  if (kernels_for(Backend::kAvx2) != nullptr) out.push_back(Backend::kAvx2);
  return out;
}

const Kernels& oracle() { return *kernels_for(Backend::kScalar); }

bool same_bits(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

void expect_same_bits(const double* got, const double* want, std::size_t n,
                      const std::string& what) {
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << " diverges at [" << i << "]: got " << got[i] << " want "
        << want[i];
}

/// As expect_same_bits, except that a NaN lane only has to be NaN. IEEE 754
/// leaves a propagated NaN's sign and payload to operand order, and the
/// compiler picks the scalar oracle's order per build (TSan and coverage
/// builds propagate a different NaN from the Release one).
void expect_same_bits_or_nan(const double* got, const double* want,
                             std::size_t n, const std::string& what) {
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(std::isnan(want[i]) ? std::isnan(got[i])
                                    : same_bits(got[i], want[i]))
        << what << " diverges at [" << i << "]: got " << got[i] << " want "
        << want[i];
}

/// A buffer whose usable span starts `offset` doubles past the allocation,
/// so offset=1 breaks 16- and 32-byte alignment (the misaligned-tail case).
struct Span {
  explicit Span(std::size_t n, std::size_t offset)
      : store(n + offset, 0.0), off(offset), len(n) {}
  double* data() { return store.data() + off; }
  const double* data() const { return store.data() + off; }
  std::vector<double> store;
  std::size_t off, len;
};

/// Randomized values spanning magnitudes, plus adversarial specials salted
/// in at fixed positions so every size hits at least some of them.
void fill_adversarial(double* p, std::size_t n, Rng& rng,
                      bool allow_nan = true) {
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(10)) {
      case 0:
        p[i] = kDenorm * static_cast<double>(1 + rng.uniform_int(100));
        break;
      case 1:
        p[i] = -rng.uniform01() * 100.0;  // negative distance / value
        break;
      case 2:
        p[i] = rng.uniform01() * 1e12;
        break;
      case 3:
        p[i] = -0.0;
        break;
      case 4:
        p[i] = allow_nan && rng.uniform_int(2) == 0 ? kNan : kInf;
        break;
      case 5:
        p[i] = -kInf;
        break;
      default:
        p[i] = rng.uniform(-200.0, 200.0);
        break;
    }
  }
}

TEST(SimdOracle, DistMatchesScalar) {
  for (const Backend b : vector_backends()) {
    const Kernels& k = *kernels_for(b);
    Rng rng(101);
    for (const std::size_t n : kSizes) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        Span xs(n, off), ys(n, off), zs(n, off), got(n, off), want(n, off);
        fill_adversarial(xs.data(), n, rng);
        fill_adversarial(ys.data(), n, rng);
        fill_adversarial(zs.data(), n, rng);
        const double cx = rng.uniform(-100.0, 100.0);
        const double cy = rng.uniform(-100.0, 100.0);
        const double cz = rng.uniform(-100.0, 100.0);
        k.dist_to_point(xs.data(), ys.data(), zs.data(), n, cx, cy, cz,
                        got.data());
        oracle().dist_to_point(xs.data(), ys.data(), zs.data(), n, cx, cy,
                               cz, want.data());
        expect_same_bits(got.data(), want.data(), n,
                         std::string("dist/") + backend_name(b));
      }
    }
  }
}

TEST(SimdOracle, RadioEnergyMatchesScalar) {
  // Parameters bracketing the Eq. 18 regimes, including a d0 that lands
  // inside the random distance range so both branches are taken, and
  // degenerate d0 = 0 / d0 = inf (single-branch) cases.
  const double kD0s[] = {0.0, 25.0, 87.7, kInf};
  for (const Backend b : vector_backends()) {
    const Kernels& k = *kernels_for(b);
    Rng rng(202);
    for (const std::size_t n : kSizes) {
      for (const double d0 : kD0s) {
        for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
          Span d(n, off), got(n, off), want(n, off);
          fill_adversarial(d.data(), n, rng);
          const double bits = 4000.0;
          const double eps_fs = 10e-12, eps_mp = 0.0013e-12;
          k.amp_energy(d.data(), n, bits, eps_fs, eps_mp, d0, got.data());
          oracle().amp_energy(d.data(), n, bits, eps_fs, eps_mp, d0,
                              want.data());
          expect_same_bits(got.data(), want.data(), n,
                           std::string("amp/") + backend_name(b));
        }
      }
    }
  }
}

TEST(SimdOracle, ScaleDivMatchesScalar) {
  const double kDenoms[] = {3.7, 1e-300, 1e300, kDenorm};
  for (const Backend b : vector_backends()) {
    const Kernels& k = *kernels_for(b);
    Rng rng(303);
    for (const std::size_t n : kSizes) {
      for (const double denom : kDenoms) {
        Span num(n, 1), got(n, 1), want(n, 1);
        fill_adversarial(num.data(), n, rng);
        k.scale_div(num.data(), n, denom, got.data());
        oracle().scale_div(num.data(), n, denom, want.data());
        expect_same_bits(got.data(), want.data(), n,
                         std::string("scale_div/") + backend_name(b));
      }
    }
  }
}

QScanConsts random_consts(Rng& rng) {
  QScanConsts c;
  c.x_src = rng.uniform01();
  c.v_src = rng.uniform(-5.0, 5.0);
  c.g = rng.uniform01();
  c.alpha1 = rng.uniform01() * 2.0;
  c.alpha2 = rng.uniform01() * 2.0;
  c.beta1 = rng.uniform01();
  c.beta2 = rng.uniform01();
  c.gamma = rng.uniform01();
  return c;
}

TEST(SimdOracle, QScanMatchesScalar) {
  for (const Backend b : vector_backends()) {
    const Kernels& k = *kernels_for(b);
    Rng rng(404);
    for (const std::size_t n : kSizes) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        Span p(n, off), y(n, off), xt(n, off), vt(n, off);
        Span got(n, off), want(n, off);
        for (std::size_t i = 0; i < n; ++i) p.data()[i] = rng.uniform01();
        fill_adversarial(y.data(), n, rng);
        fill_adversarial(xt.data(), n, rng);
        fill_adversarial(vt.data(), n, rng);
        const QScanConsts c = random_consts(rng);
        k.q_scan(p.data(), y.data(), xt.data(), vt.data(), n, c, got.data());
        oracle().q_scan(p.data(), y.data(), xt.data(), vt.data(), n, c,
                        want.data());
        expect_same_bits_or_nan(got.data(), want.data(), n,
                                std::string("q_scan/") + backend_name(b));
      }
    }
  }
}

TEST(SimdOracle, ArgExtremaMatchScalarIncludingTies) {
  for (const Backend b : vector_backends()) {
    const Kernels& k = *kernels_for(b);
    Rng rng(505);
    for (const std::size_t n : kSizes) {
      for (int rep = 0; rep < 8; ++rep) {
        Span v(n, static_cast<std::size_t>(rep % 2));
        // Draw from a tiny value set so duplicate extrema are common: the
        // first-wins tie rule is the property under test.
        for (std::size_t i = 0; i < n; ++i) {
          const int pick = rng.uniform_int(6);
          v.data()[i] = pick == 5 ? kNan : static_cast<double>(pick);
        }
        ASSERT_EQ(k.argmax(v.data(), n), oracle().argmax(v.data(), n))
            << "argmax/" << backend_name(b) << " n=" << n;
        ASSERT_EQ(k.argmin(v.data(), n), oracle().argmin(v.data(), n))
            << "argmin/" << backend_name(b) << " n=" << n;
      }
    }
  }
}

TEST(SimdOracle, ArgExtremaGuardNaNAndHandleAllDead) {
  // All-NaN and all--inf inputs model "every candidate dead": the scalar
  // loop never updates and reports npos; every backend must agree.
  for (const Backend b : vector_backends()) {
    const Kernels& k = *kernels_for(b);
    for (const std::size_t n : kSizes) {
      const std::vector<double> nans(n, kNan);
      const std::vector<double> neg_inf(n, -kInf);
      const std::vector<double> pos_inf(n, kInf);
      EXPECT_EQ(k.argmax(nans.data(), n), npos);
      EXPECT_EQ(k.argmin(nans.data(), n), npos);
      EXPECT_EQ(k.argmax(neg_inf.data(), n), npos);
      EXPECT_EQ(k.argmin(pos_inf.data(), n), npos);
      if (n > 0) {
        EXPECT_EQ(k.argmax(pos_inf.data(), n), 0u);
        EXPECT_EQ(k.argmin(neg_inf.data(), n), 0u);
      }
    }
  }
}

TEST(SimdOracle, SingleElementAndEmpty) {
  for (const Backend b : vector_backends()) {
    const Kernels& k = *kernels_for(b);
    EXPECT_EQ(k.argmax(nullptr, 0), npos);
    EXPECT_EQ(k.argmin(nullptr, 0), npos);
    const double one = 42.0;
    EXPECT_EQ(k.argmax(&one, 1), 0u);
    EXPECT_EQ(k.argmin(&one, 1), 0u);
    // Empty-lane calls must be no-ops, not crashes.
    k.dist_to_point(nullptr, nullptr, nullptr, 0, 0, 0, 0, nullptr);
    k.amp_energy(nullptr, 0, 1, 1, 1, 1, nullptr);
    k.q_scan(nullptr, nullptr, nullptr, nullptr, 0, QScanConsts{}, nullptr);
  }
}

class SimdEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("QLEC_SIMD");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
  }
  void TearDown() override {
    if (had_prev_)
      ::setenv("QLEC_SIMD", prev_.c_str(), 1);
    else
      ::unsetenv("QLEC_SIMD");
    reset_to_env();
  }
  bool had_prev_ = false;
  std::string prev_;
};

TEST_F(SimdEnvTest, EveryForcingValueResolvesToAnAvailableBackend) {
  const struct {
    const char* value;
    Backend want;  // expected when that backend is available
  } kCases[] = {
      {"scalar", Backend::kScalar},
      {"avx2", Backend::kAvx2},
  };
  for (const auto& c : kCases) {
    ::setenv("QLEC_SIMD", c.value, 1);
    const Backend got = reset_to_env();
    EXPECT_TRUE(available(got)) << c.value;
    if (available(c.want)) {
      EXPECT_EQ(got, c.want) << c.value;
    }
    EXPECT_EQ(&kernels(), kernels_for(got));
  }
  ::setenv("QLEC_SIMD", "auto", 1);
  EXPECT_TRUE(available(reset_to_env()));
  ::setenv("QLEC_SIMD", "bogus-backend", 1);
  EXPECT_TRUE(available(reset_to_env()));  // falls back, never crashes
}

TEST_F(SimdEnvTest, ForcedScalarStillPassesDifferentialSpotCheck) {
  // Run one kernel through the public dispatch under each forcing value and
  // pin it to the oracle — the dispatch layer itself must never change
  // results, whatever QLEC_SIMD says.
  Rng rng(606);
  const std::size_t n = 33;
  std::vector<double> p(n), y(n), xt(n), vt(n), got(n), want(n);
  for (auto* v : {&p, &y, &xt, &vt})
    fill_adversarial(v->data(), n, rng, /*allow_nan=*/false);
  const QScanConsts c = random_consts(rng);
  oracle().q_scan(p.data(), y.data(), xt.data(), vt.data(), n, c,
                  want.data());
  for (const char* mode : {"scalar", "avx2", "auto"}) {
    ::setenv("QLEC_SIMD", mode, 1);
    reset_to_env();
    kernels().q_scan(p.data(), y.data(), xt.data(), vt.data(), n, c,
                     got.data());
    expect_same_bits(got.data(), want.data(), n,
                     std::string("dispatch q_scan under QLEC_SIMD=") + mode);
  }
}

TEST(SimdDispatch, ForceClampsToAvailable) {
  const Backend prev = active();
  EXPECT_EQ(force(Backend::kScalar), Backend::kScalar);
  EXPECT_EQ(active(), Backend::kScalar);
  const Backend b = force(Backend::kAvx2);
  EXPECT_TRUE(available(b));  // clamped if avx2 is unavailable
  force(prev);
}

TEST(SimdDispatch, BackendNamesAreStable) {
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_TRUE(available(Backend::kScalar));
  EXPECT_NE(kernels_for(Backend::kScalar), nullptr);
}

}  // namespace
}  // namespace qlec::simd
