#include "util/cli.hpp"

#include <algorithm>
#include <sstream>

namespace qlec {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      options_.emplace_back(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    // --key value (value = next token unless it is another option).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_.emplace_back(body, argv[++i]);
    } else {
      options_.emplace_back(body, "true");
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  return get(key).has_value();
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  std::optional<std::string> out;
  for (const auto& [k, v] : options_)
    if (k == key) out = v;
  return out;
}

std::vector<std::string> CliArgs::get_all(const std::string& key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : options_)
    if (k == key) out.push_back(v);
  return out;
}

std::string CliArgs::get_string(const std::string& key,
                                const std::string& fallback) const {
  return get(key).value_or(fallback);
}

long long CliArgs::get_int(const std::string& key, long long fallback,
                           long long min, long long max) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const long long out = std::stoll(*v, &pos);
    if (pos == v->size() && out >= min && out <= max) return out;
  } catch (...) {
  }
  errors_.push_back(key);
  return fallback;
}

std::string render_usage(
    const std::string& program,
    const std::vector<std::pair<std::string, std::string>>& options) {
  std::size_t width = 0;
  for (const auto& [flag, _] : options) width = std::max(width, flag.size());
  std::ostringstream out;
  out << "usage: " << program << " [options]\n";
  for (const auto& [flag, help] : options) {
    out << "  " << flag << std::string(width - flag.size() + 2, ' ') << help
        << '\n';
  }
  return out.str();
}

}  // namespace qlec
