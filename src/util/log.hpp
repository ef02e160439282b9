// Tiny leveled logger. Simulations are hot loops, so logging is opt-in and
// the disabled path is a single branch on an atomic.
//
// Thread-safety contract (relevant under ExecPolicy::pool replications,
// where several SimRuns log concurrently): the level threshold is a relaxed
// atomic, and every emit() — whatever thread it comes from — serializes on
// one process-wide mutex, so complete lines never interleave. The writer
// seam below is covered by the same mutex; installing a writer while other
// threads are emitting is safe, though lines already past the level check
// may land in either writer.
#pragma once

#include <atomic>
#include <functional>
#include <sstream>
#include <string>

namespace qlec::log {

enum class Level : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are discarded.
void set_level(Level level);
Level level();

/// True when a message at `l` would be emitted (guards expensive builds).
bool enabled(Level l);

/// Emits a message (thread-safe; one line per call, prefixed with level).
void emit(Level l, const std::string& message);

/// Replaces the output backend. The default writes "[LEVEL] message\n" to
/// stderr; a custom writer receives the level and the unformatted message
/// (tests capture lines this way).
/// Writers are invoked under the emit mutex — keep them non-blocking and
/// never call back into qlec::log from inside one. Pass nullptr to restore
/// the stderr default.
using Writer = std::function<void(Level, const std::string&)>;
void set_writer(Writer writer);

namespace detail {
inline void append(std::ostringstream&) {}
template <typename T, typename... Rest>
void append(std::ostringstream& os, T&& first, Rest&&... rest) {
  os << std::forward<T>(first);
  append(os, std::forward<Rest>(rest)...);
}
}  // namespace detail

template <typename... Args>
void debug(Args&&... args) {
  if (!enabled(Level::kDebug)) return;
  std::ostringstream os;
  detail::append(os, std::forward<Args>(args)...);
  emit(Level::kDebug, os.str());
}

template <typename... Args>
void info(Args&&... args) {
  if (!enabled(Level::kInfo)) return;
  std::ostringstream os;
  detail::append(os, std::forward<Args>(args)...);
  emit(Level::kInfo, os.str());
}

template <typename... Args>
void warn(Args&&... args) {
  if (!enabled(Level::kWarn)) return;
  std::ostringstream os;
  detail::append(os, std::forward<Args>(args)...);
  emit(Level::kWarn, os.str());
}

template <typename... Args>
void error(Args&&... args) {
  if (!enabled(Level::kError)) return;
  std::ostringstream os;
  detail::append(os, std::forward<Args>(args)...);
  emit(Level::kError, os.str());
}

}  // namespace qlec::log
