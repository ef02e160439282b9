#include "util/number_format.hpp"

#include <charconv>
#include <cstddef>

namespace qlec {
namespace {

/// Room for any %.17g output: sign, 17 digits, '.', "e-308" is 24.
constexpr std::size_t kBufSize = 32;

/// Writes `v` into [first, first + kBufSize) and returns one past the last
/// character written (no terminator).
char* write_g17(char* first, double v) noexcept {
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
