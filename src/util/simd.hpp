// Runtime-dispatched SIMD kernels for the simulator's SoA hot loops:
// point-to-set distance, the Eq. 18 radio amplifier energy, and the
// Q-value scan of Algorithm 4 (DESIGN.md §12).
//
// Contract: every backend computes BIT-IDENTICAL IEEE-754 results to the
// scalar reference for every input — the kernels replicate the exact
// operation order of the scalar expressions they replace (left-associated
// multiplies, no FMA contraction, correctly-rounded sqrt/div), so golden
// trace digests do not depend on the host CPU. tests/util/test_simd_oracle
// pins each backend to the scalar oracle bit-for-bit on randomized and
// adversarial inputs under every QLEC_SIMD forcing value.
//
// Backend selection: the best CPU-supported backend is chosen once, lazily;
// QLEC_SIMD=scalar|avx2|auto forces a backend (an unavailable forced
// backend falls back to the best available one). Tests may override
// programmatically with force().
#pragma once

#include <cstddef>

namespace qlec::simd {

enum class Backend : int { kScalar = 0, kAvx2 = 1 };

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// Lane-invariant constants of the Q-value scan (QlecRouter::choose_target):
/// everything in Q*(b_i, a_j) that does not vary with the candidate head.
struct QScanConsts {
  double x_src = 0.0;   ///< x(b_i), the sender's normalized residual
  double v_src = 0.0;   ///< V*(b_i) before the scan (the failure branch)
  double g = 0.0;       ///< per-attempt cost (Eq. 17/20)
  double alpha1 = 0.0;  ///< success-reward residual weight
  double alpha2 = 0.0;  ///< success-reward cost weight
  double beta1 = 0.0;   ///< failure-reward residual weight
  double beta2 = 0.0;   ///< failure-reward cost weight
  double gamma = 0.0;   ///< discount
};

/// One backend's kernel table. All arrays may alias only as documented;
/// `out` never aliases an input. n == 0 is always legal.
struct Kernels {
  /// out[i] = sqrt((xs[i]-cx)² + (ys[i]-cy)² + (zs[i]-cz)²), the sum
  /// associated exactly like Vec3::norm2 ((xx + yy) + zz), matching
  /// distance(Vec3, Vec3) bit-for-bit.
  void (*dist_to_point)(const double* xs, const double* ys, const double* zs,
                        std::size_t n, double cx, double cy, double cz,
                        double* out);
  /// Eq. 18 amplifier energy per distance, replicating
  /// RadioModel::amp_energy: d clamped at 0; bits*eps_fs*d² below d0,
  /// bits*eps_mp*d⁴ at or above (left-associated products).
  void (*amp_energy)(const double* d, std::size_t n, double bits,
                     double eps_fs, double eps_mp, double d0, double* out);
  /// out[i] = num[i] / denom (IEEE division; used for reward normalization).
  void (*scale_div)(const double* num, std::size_t n, double denom,
                    double* out);
  /// The Algorithm 4 backup for n candidate heads:
  ///   r_s = -g + alpha1*(x_src + x_t[i]) - alpha2*y[i]
  ///   r_f = -g + beta1*x_src - beta2*y[i]
  ///   q[i] = (p[i]*r_s + (1-p[i])*r_f)
  ///          + gamma*(p[i]*v_t[i] + (1-p[i])*v_src)
  /// replicating QlecRouter::choose_target's inline loop bit-for-bit.
  void (*q_scan)(const double* p, const double* y, const double* x_t,
                 const double* v_t, std::size_t n, const QScanConsts& c,
                 double* q_out);
  /// Index of the first strict maximum (scalar semantics: best starts at
  /// -inf, `v[i] > best` updates; NaNs never win). npos when n == 0 or no
  /// element compares greater than -inf.
  std::size_t (*argmax)(const double* v, std::size_t n);
  /// Index of the first strict minimum (best starts at +inf, `v[i] < best`
  /// updates). npos when n == 0 or nothing beats +inf.
  std::size_t (*argmin)(const double* v, std::size_t n);
};

const char* backend_name(Backend b) noexcept;

/// True when this build + CPU can run `b`.
bool available(Backend b) noexcept;

/// The backend the kernel table currently dispatches to.
Backend active() noexcept;

/// Programmatic override (used by the oracle tests); forcing an unavailable
/// backend clamps to the best available one. Returns the backend actually
/// installed.
Backend force(Backend b) noexcept;

/// Re-resolves from QLEC_SIMD / CPU detection (undoes force()).
Backend reset_to_env() noexcept;

/// The active backend's kernel table.
const Kernels& kernels() noexcept;

/// A specific backend's table (for differential tests); null when
/// unavailable in this build.
const Kernels* kernels_for(Backend b) noexcept;

}  // namespace qlec::simd
