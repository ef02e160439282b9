// The per-run telemetry context: one MetricsRegistry + one EventSink + one
// optional TraceRecorder behind a single owner object. Everything in this
// subsystem is strictly observational — no instrument touches an Rng stream
// or simulation state — so enabling telemetry never changes a trajectory
// and disabled telemetry (the default) costs one null-pointer test per
// instrumented site. See OBSERVABILITY.md for the user-facing guide.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"

namespace qlec::obs {

/// Nested options block for SimConfig (mirrors AuditOptions/TraceOptions).
/// All defaults off; `enabled == false` means the simulator constructs no
/// Telemetry object at all — the golden-digest / perf guarantee.
struct TelemetryOptions {
  /// Master switch; everything below is ignored while false.
  bool enabled = false;

  enum class Sink {
    kNull,  ///< events dropped (metrics/timers may still run)
    kRing,  ///< keep the newest `ring_capacity` events in memory
    kFile,  ///< append JSONL to `events_path`
  };
  Sink sink = Sink::kRing;
  std::string events_path;           ///< FileSink target (Sink::kFile)
  std::size_t ring_capacity = 4096;  ///< RingBufferSink depth (Sink::kRing)

  /// Also emit per-attempt records (retry, q_update). Off by default: these
  /// scale with packet count, not round count.
  bool per_packet_events = false;

  /// Collect PhaseTimer spans around the simulator phases.
  bool trace_phases = false;
  /// Chrome trace_event JSON output path ("" = keep spans in memory only;
  /// read them back through Telemetry::tracer()).
  std::string trace_path;

  /// End-of-run MetricsRegistry JSON output path ("" = don't write).
  std::string metrics_path;

  friend bool operator==(const TelemetryOptions&, const TelemetryOptions&) =
      default;
};

/// Owns the instruments for one simulation run. Single-threaded by design:
/// each SimRun constructs its own Telemetry, so pool-mode replications
/// never share one (run_replications suffixes output paths per seed to keep
/// the files apart — see with_seed_suffix).
class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& opts);
  ~Telemetry();  ///< flush()es

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryOptions& options() const noexcept { return opts_; }

  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// The phase-trace recorder, or nullptr when trace_phases is off — pass
  /// straight to PhaseTimer, which treats null as a no-op.
  TraceRecorder* tracer() noexcept { return tracer_.get(); }

  void emit(const Event& e) { sink_->emit(e); }
  bool per_packet_events() const noexcept { return opts_.per_packet_events; }

  EventSink& sink() noexcept { return *sink_; }
  /// The ring sink, or nullptr when a different sink kind is configured.
  RingBufferSink* ring() noexcept { return ring_; }

  /// Flushes the event sink and writes the trace/metrics files when their
  /// paths are configured. Idempotent; also runs at destruction.
  void flush();

  /// Rewrites every output path for replication `seed_index` by inserting
  /// ".seed<k>" before the extension ("ev.jsonl" -> "ev.seed3.jsonl"), so
  /// pool-mode seeds never interleave within one file.
  static TelemetryOptions with_seed_suffix(TelemetryOptions opts,
                                           std::size_t seed_index);

 private:
  TelemetryOptions opts_;
  MetricsRegistry metrics_;
  std::unique_ptr<EventSink> sink_;  // never null (NullSink fallback)
  RingBufferSink* ring_ = nullptr;   // borrowed view into sink_
  std::unique_ptr<TraceRecorder> tracer_;
  bool flushed_ = false;
};

}  // namespace qlec::obs
