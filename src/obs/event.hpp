// Structured telemetry events and their sinks. An Event is a typed record
// ("election", "retry", "fault", ...) with a round number and a flat list
// of key/value fields; sinks decide what happens to it — append a JSONL
// line to a file, keep the last N in memory, or drop it. The schema every
// event type carries is documented in OBSERVABILITY.md §events.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace qlec::obs {

/// One telemetry record under construction. Builder-style:
///   Event("election", round).with("heads", 5).with("pruned", 2)
/// Field order is preserved into the JSONL output. Values are stored in a
/// small tagged union (int64 / uint64 / double / bool / string), matching
/// what JSON can represent without loss.
class Event {
 public:
  enum class FieldKind { kInt, kUint, kDouble, kBool, kString };

  struct Field {
    std::string key;
    FieldKind kind = FieldKind::kInt;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    double d = 0.0;
    bool b = false;
    std::string s;
  };

  Event(std::string type, int round) : type_(std::move(type)), round_(round) {}

  Event& with(std::string key, std::int64_t v) &;
  Event& with(std::string key, int v) & {
    return with(std::move(key), static_cast<std::int64_t>(v));
  }
  Event& with(std::string key, std::uint64_t v) &;
  Event& with(std::string key, double v) &;
  Event& with(std::string key, bool v) &;
  Event& with(std::string key, std::string v) &;
  Event& with(std::string key, const char* v) & {
    return with(std::move(key), std::string(v));
  }
  // Rvalue overloads so the builder chain works on temporaries.
  template <typename T>
  Event&& with(std::string key, T v) && {
    with(std::move(key), std::move(v));
    return std::move(*this);
  }

  const std::string& type() const noexcept { return type_; }
  int round() const noexcept { return round_; }
  const std::vector<Field>& fields() const noexcept { return fields_; }
  /// Field lookup by key; nullptr when absent.
  const Field* field(const std::string& key) const noexcept;

  /// The JSONL encoding: one compact JSON object
  /// {"type":...,"round":...,<fields in order>} with no trailing newline.
  std::string to_jsonl() const;

 private:
  std::string type_;
  int round_ = 0;
  std::vector<Field> fields_;
};

/// Where events go. Implementations must tolerate emit() from the single
/// thread that owns the simulation run; FileSink additionally locks so one
/// sink may be shared across runs (ExecPolicy::pool replications).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void emit(const Event& e) = 0;
  virtual void flush() {}
};

/// Discards everything (the enabled-but-quiet configuration).
class NullSink final : public EventSink {
 public:
  void emit(const Event&) override {}
};

/// Appends one JSONL line per event. Lines are written atomically under a
/// mutex, so concurrent emitters interleave at line granularity only.
class FileSink final : public EventSink {
 public:
  explicit FileSink(const std::string& path);
  void emit(const Event& e) override;
  void flush() override;
  bool ok() const { return out_.good(); }

 private:
  std::ofstream out_;
  std::mutex mutex_;
};

/// Keeps the newest `capacity` events in memory (oldest evicted first).
/// Useful for tests and post-mortem inspection without touching disk.
class RingBufferSink final : public EventSink {
 public:
  explicit RingBufferSink(std::size_t capacity);
  void emit(const Event& e) override;

  /// Events in arrival order, oldest first.
  std::vector<Event> snapshot() const;
  std::size_t size() const noexcept { return size_; }
  std::uint64_t total_emitted() const noexcept { return total_; }
  std::size_t capacity() const noexcept { return ring_.size(); }

 private:
  std::vector<Event> ring_;
  std::size_t head_ = 0;  ///< next write slot
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace qlec::obs
