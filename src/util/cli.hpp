// Minimal command-line parsing for the example/bench drivers:
// --key=value and --key value forms, with typed getters, defaults, and an
// auto-generated usage string.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace qlec {

class CliArgs {
 public:
  /// Parses argv. Free-standing (non --key) tokens become positional
  /// arguments. A bare `--flag` followed by another option (or nothing) is
  /// a boolean flag with value "true". Unknown options are kept (callers
  /// can reject via `unknown_options`).
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  /// Last occurrence of `key` (repeated options overwrite for the scalar
  /// getters), or nullopt when absent.
  std::optional<std::string> get(const std::string& key) const;
  /// Every occurrence of `key`, in command-line order — for repeatable
  /// options like `--set a=1 --set b=2`.
  std::vector<std::string> get_all(const std::string& key) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// Returns the fallback on a missing OR unparseable value (an
  /// unparseable value also records the key in `errors()`). An integer
  /// outside [min, max] counts as unparseable.
  long long get_int(const std::string& key, long long fallback,
                    long long min = std::numeric_limits<long long>::min(),
                    long long max =
                        std::numeric_limits<long long>::max()) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  const std::vector<std::string>& errors() const noexcept { return errors_; }

 private:
  /// Every --key occurrence in order (repeats preserved for get_all).
  std::vector<std::pair<std::string, std::string>> options_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> errors_;
};

/// Renders a two-column option/usage table for --help output.
std::string render_usage(
    const std::string& program,
    const std::vector<std::pair<std::string, std::string>>& options);

}  // namespace qlec
