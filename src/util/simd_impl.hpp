// Private: the scalar reference loops behind qlec::simd, shared by every
// backend TU — the scalar table points straight at them, and the AVX2 TU
// reuses them for misaligned tails so a vectorized kernel and its tail are
// one expression tree. Each loop replicates, operation for operation, the
// inline scalar code it accelerates (Vec3::norm2 / distance,
// RadioModel::amp_energy, QlecRouter::choose_target's Q backup);
// do not "simplify" the arithmetic — associativity changes break the
// bit-identicality contract in simd.hpp.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

#include "util/simd.hpp"

namespace qlec::simd::detail {

inline void dist_range(const double* xs, const double* ys, const double* zs,
                       std::size_t begin, std::size_t end, double cx,
                       double cy, double cz, double* out) {
  for (std::size_t i = begin; i < end; ++i) {
    const double dx = xs[i] - cx;
    const double dy = ys[i] - cy;
    const double dz = zs[i] - cz;
    out[i] = std::sqrt(dx * dx + dy * dy + dz * dz);
  }
}

inline void amp_range(const double* din, std::size_t begin, std::size_t end,
                      double bits, double eps_fs, double eps_mp, double d0,
                      double* out) {
  for (std::size_t i = begin; i < end; ++i) {
    double d = din[i];
    if (d < 0.0) d = 0.0;
    out[i] = d < d0 ? bits * eps_fs * d * d : bits * eps_mp * d * d * d * d;
  }
}

inline void scale_div_range(const double* num, std::size_t begin,
                            std::size_t end, double denom, double* out) {
  for (std::size_t i = begin; i < end; ++i) out[i] = num[i] / denom;
}

inline void q_scan_range(const double* p, const double* y, const double* x_t,
                         const double* v_t, std::size_t begin, std::size_t end,
                         const QScanConsts& c, double* out) {
  for (std::size_t i = begin; i < end; ++i) {
    const double ps = p[i];
    const double r_s =
        -c.g + c.alpha1 * (c.x_src + x_t[i]) - c.alpha2 * y[i];
    const double r_f = -c.g + c.beta1 * c.x_src - c.beta2 * y[i];
    const double rt = ps * r_s + (1.0 - ps) * r_f;
    out[i] = rt + c.gamma * (ps * v_t[i] + (1.0 - ps) * c.v_src);
  }
}

inline std::size_t argmax_range(const double* v, std::size_t n) {
  std::size_t best = npos;
  double best_v = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] > best_v) {
      best_v = v[i];
      best = i;
    }
  }
  return best;
}

inline std::size_t argmin_range(const double* v, std::size_t n) {
  std::size_t best = npos;
  double best_v = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] < best_v) {
      best_v = v[i];
      best = i;
    }
  }
  return best;
}

// The AVX2 table, defined in its own TU so it can carry its own codegen
// flags; nullptr when this build cannot target AVX2.
const Kernels* avx2_table() noexcept;

}  // namespace qlec::simd::detail
