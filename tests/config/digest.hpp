// FNV-1a 64 as 16 hex digits: the digest the config tests pin byte
// streams with (config echoes, manifests, error texts).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace qlec::config::test {

inline std::string fnv1a64_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace qlec::config::test
