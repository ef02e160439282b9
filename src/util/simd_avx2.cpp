// AVX2 backend for qlec::simd (4 doubles per lane-group). This TU is
// compiled with -mavx2 -ffp-contract=off (see src/CMakeLists.txt): the
// contract flag forbids FMA fusion so every multiply and add rounds exactly
// like the scalar reference. When the toolchain can't target AVX2 the TU
// degrades to a stub and dispatch never offers the backend.
#include "util/simd_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <limits>

namespace qlec::simd::detail {
namespace {

void avx2_dist(const double* xs, const double* ys, const double* zs,
               std::size_t n, double cx, double cy, double cz, double* out) {
  const __m256d vcx = _mm256_set1_pd(cx);
  const __m256d vcy = _mm256_set1_pd(cy);
  const __m256d vcz = _mm256_set1_pd(cz);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), vcx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), vcy);
    const __m256d dz = _mm256_sub_pd(_mm256_loadu_pd(zs + i), vcz);
    const __m256d d2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
        _mm256_mul_pd(dz, dz));
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(d2));
  }
  dist_range(xs, ys, zs, i, n, cx, cy, cz, out);
}

// amp = d < d0 ? (bits*eps_fs)*d*d : (bits*eps_mp)*d*d*d*d, d clamped at 0.
// _mm256_max_pd(zero, d) matches the scalar `if (d < 0) d = 0`: it returns
// the second operand when unordered (NaN passes through) or equal (-0.0
// stays).
inline __m256d amp_block(__m256d d, __m256d vfs, __m256d vmp, __m256d vd0) {
  d = _mm256_max_pd(_mm256_setzero_pd(), d);
  const __m256d fs = _mm256_mul_pd(_mm256_mul_pd(vfs, d), d);
  const __m256d mp2 = _mm256_mul_pd(_mm256_mul_pd(vmp, d), d);
  const __m256d mp = _mm256_mul_pd(_mm256_mul_pd(mp2, d), d);
  const __m256d lt = _mm256_cmp_pd(d, vd0, _CMP_LT_OQ);
  return _mm256_blendv_pd(mp, fs, lt);
}

void avx2_amp(const double* din, std::size_t n, double bits, double eps_fs,
              double eps_mp, double d0, double* out) {
  const __m256d vfs = _mm256_set1_pd(bits * eps_fs);
  const __m256d vmp = _mm256_set1_pd(bits * eps_mp);
  const __m256d vd0 = _mm256_set1_pd(d0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i,
                     amp_block(_mm256_loadu_pd(din + i), vfs, vmp, vd0));
  amp_range(din, i, n, bits, eps_fs, eps_mp, d0, out);
}

void avx2_scale_div(const double* num, std::size_t n, double denom,
                    double* out) {
  const __m256d vden = _mm256_set1_pd(denom);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(_mm256_loadu_pd(num + i), vden));
  scale_div_range(num, i, n, denom, out);
}

void avx2_q_scan(const double* p, const double* y, const double* x_t,
                 const double* v_t, std::size_t n, const QScanConsts& c,
                 double* out) {
  const __m256d neg_g = _mm256_set1_pd(-c.g);
  const __m256d a1 = _mm256_set1_pd(c.alpha1);
  const __m256d a2 = _mm256_set1_pd(c.alpha2);
  const __m256d b2 = _mm256_set1_pd(c.beta2);
  const __m256d xsrc = _mm256_set1_pd(c.x_src);
  const __m256d vsrc = _mm256_set1_pd(c.v_src);
  const __m256d gamma = _mm256_set1_pd(c.gamma);
  const __m256d one = _mm256_set1_pd(1.0);
  // (-g) + beta1*x_src is lane-invariant; hoisting it performs the same two
  // roundings the scalar loop does every iteration.
  const __m256d rf_base = _mm256_set1_pd(-c.g + c.beta1 * c.x_src);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ps = _mm256_loadu_pd(p + i);
    const __m256d ys = _mm256_loadu_pd(y + i);
    const __m256d xt = _mm256_loadu_pd(x_t + i);
    const __m256d vt = _mm256_loadu_pd(v_t + i);
    const __m256d r_s = _mm256_sub_pd(
        _mm256_add_pd(neg_g, _mm256_mul_pd(a1, _mm256_add_pd(xsrc, xt))),
        _mm256_mul_pd(a2, ys));
    const __m256d r_f = _mm256_sub_pd(rf_base, _mm256_mul_pd(b2, ys));
    const __m256d omp = _mm256_sub_pd(one, ps);
    const __m256d rt =
        _mm256_add_pd(_mm256_mul_pd(ps, r_s), _mm256_mul_pd(omp, r_f));
    const __m256d vterm =
        _mm256_add_pd(_mm256_mul_pd(ps, vt), _mm256_mul_pd(omp, vsrc));
    _mm256_storeu_pd(out + i, _mm256_add_pd(rt, _mm256_mul_pd(gamma, vterm)));
  }
  q_scan_range(p, y, x_t, v_t, i, n, c, out);
}

// First-strict-extremum scan. Lane L owns indices L, L+4, …; per-lane
// first-wins plus a (value, then min-index) lane merge reproduces the scalar
// first-wins order exactly. Never-updated lanes still hold ±inf and are
// skipped by the strict merge, so all-NaN / all-inf inputs yield npos just
// like the scalar loop.
template <bool kMax>
std::size_t avx2_argext(const double* vals, std::size_t n) {
  const double init = kMax ? -std::numeric_limits<double>::infinity()
                           : std::numeric_limits<double>::infinity();
  double best_v = init;
  std::size_t best = npos;
  std::size_t i = 0;
  if (n >= 4) {
    __m256d bv = _mm256_set1_pd(init);
    __m256d bi = _mm256_setzero_pd();
    __m256d idx = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    const __m256d step = _mm256_set1_pd(4.0);
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(vals + i);
      const __m256d better = kMax ? _mm256_cmp_pd(v, bv, _CMP_GT_OQ)
                                  : _mm256_cmp_pd(v, bv, _CMP_LT_OQ);
      bv = _mm256_blendv_pd(bv, v, better);
      bi = _mm256_blendv_pd(bi, idx, better);
      idx = _mm256_add_pd(idx, step);
    }
    double lane_v[4], lane_i[4];
    _mm256_storeu_pd(lane_v, bv);
    _mm256_storeu_pd(lane_i, bi);
    for (int l = 0; l < 4; ++l) {
      const bool strictly_better = kMax ? lane_v[l] > best_v
                                        : lane_v[l] < best_v;
      const bool tie_lower = best != npos && lane_v[l] == best_v &&
                             static_cast<std::size_t>(lane_i[l]) < best;
      if (strictly_better || tie_lower) {
        best_v = lane_v[l];
        best = static_cast<std::size_t>(lane_i[l]);
      }
    }
  }
  for (; i < n; ++i) {
    const bool better = kMax ? vals[i] > best_v : vals[i] < best_v;
    if (better) {
      best_v = vals[i];
      best = i;
    }
  }
  return best;
}

std::size_t avx2_argmax(const double* v, std::size_t n) {
  return avx2_argext<true>(v, n);
}
std::size_t avx2_argmin(const double* v, std::size_t n) {
  return avx2_argext<false>(v, n);
}

constexpr Kernels kAvx2Table{
    avx2_dist,      avx2_amp,
    avx2_scale_div, avx2_q_scan,
    avx2_argmax,    avx2_argmin,
};

}  // namespace

const Kernels* avx2_table() noexcept { return &kAvx2Table; }

}  // namespace qlec::simd::detail

#else  // !__AVX2__

namespace qlec::simd::detail {
const Kernels* avx2_table() noexcept { return nullptr; }
}  // namespace qlec::simd::detail

#endif
