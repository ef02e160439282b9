#include "util/number_format.hpp"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace qlec {
namespace {

/// Room for any %.17g output: sign, 17 digits, '.', "e-308" is 24.
constexpr std::size_t kBufSize = 32;

/// Writes `v` into [first, first + kBufSize) and returns one past the last
/// character written (no terminator).
char* write_g17(char* first, double v) noexcept {
  // An integral |v| < 1e17 has at most 17 digits, so %.17g prints it in
  // fixed notation with every digit exact and the fraction stripped: the
  // integer's own decimal text. -0.0 ("-0"), NaN and the infinities fail
  // the test and take the general path.
  if (std::fabs(v) < 1e17 && !(v == 0.0 && std::signbit(v))) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v)
      return std::to_chars(first, first + kBufSize, i).ptr;
  }
  return std::to_chars(first, first + kBufSize, v,
                       std::chars_format::general, 17).ptr;
}

}  // namespace

void append_g17(std::string& out, double v) {
  char buf[kBufSize];
  out.append(buf, write_g17(buf, v));
}

std::string format_g17(double v) {
  char buf[kBufSize];
  return std::string(buf, write_g17(buf, v));
}

}  // namespace qlec
