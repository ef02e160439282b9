// Backend selection for qlec::simd. The scalar table is the oracle; the
// AVX2 table lives in its own TU (simd_avx2.cpp) so it can be compiled with
// its own ISA flags while this TU stays baseline.
#include "util/simd.hpp"

#include <atomic>

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/simd_impl.hpp"

namespace qlec::simd {
namespace {

void scalar_dist(const double* xs, const double* ys, const double* zs,
                 std::size_t n, double cx, double cy, double cz, double* out) {
  detail::dist_range(xs, ys, zs, 0, n, cx, cy, cz, out);
}
void scalar_amp(const double* d, std::size_t n, double bits, double eps_fs,
                double eps_mp, double d0, double* out) {
  detail::amp_range(d, 0, n, bits, eps_fs, eps_mp, d0, out);
}
void scalar_scale_div(const double* num, std::size_t n, double denom,
                      double* out) {
  detail::scale_div_range(num, 0, n, denom, out);
}
void scalar_q_scan(const double* p, const double* y, const double* x_t,
                   const double* v_t, std::size_t n, const QScanConsts& c,
                   double* out) {
  detail::q_scan_range(p, y, x_t, v_t, 0, n, c, out);
}

constexpr Kernels kScalarTable{
    scalar_dist,          scalar_amp,
    scalar_scale_div,     scalar_q_scan,
    detail::argmax_range, detail::argmin_range,
};

const Kernels* table_for(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar:
      return &kScalarTable;
    case Backend::kAvx2:
      return detail::avx2_table();
  }
  return nullptr;
}

bool cpu_supports(Backend b) noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
  }
#endif
  return b == Backend::kScalar;
}

Backend best_available() noexcept {
  if (available(Backend::kAvx2)) return Backend::kAvx2;
  return Backend::kScalar;
}

Backend resolve_from_env() noexcept {
  const std::string req = env::str("QLEC_SIMD");
  if (req.empty() || req == "auto") return best_available();
  Backend want = Backend::kScalar;
  if (req == "scalar") {
    want = Backend::kScalar;
  } else if (req == "avx2") {
    want = Backend::kAvx2;
  } else {
    log::warn("QLEC_SIMD=", req, " not recognized (scalar|avx2|auto); ",
              "using ", backend_name(best_available()));
    return best_available();
  }
  if (!available(want)) {
    const Backend fb = best_available();
    log::warn("QLEC_SIMD=", req, " unavailable on this build/CPU; using ",
              backend_name(fb));
    return fb;
  }
  return want;
}

// The installed backend; -1 until first resolution. Relaxed is fine: the
// value is write-once-per-force and any racing reader just resolves again.
std::atomic<int> g_active{-1};

Backend install(Backend b) noexcept {
  g_active.store(static_cast<int>(b), std::memory_order_relaxed);
  return b;
}

}  // namespace

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "?";
}

bool available(Backend b) noexcept {
  return table_for(b) != nullptr && cpu_supports(b);
}

Backend active() noexcept {
  const int cur = g_active.load(std::memory_order_relaxed);
  if (cur >= 0) return static_cast<Backend>(cur);
  return install(resolve_from_env());
}

Backend force(Backend b) noexcept {
  return install(available(b) ? b : best_available());
}

Backend reset_to_env() noexcept { return install(resolve_from_env()); }

const Kernels& kernels() noexcept { return *table_for(active()); }

const Kernels* kernels_for(Backend b) noexcept {
  return available(b) ? table_for(b) : nullptr;
}

}  // namespace qlec::simd
