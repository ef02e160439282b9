#include "obs/telemetry.hpp"

#include <fstream>

namespace qlec::obs {
namespace {

std::string seed_suffixed(const std::string& path, std::size_t seed_index) {
  if (path.empty()) return path;
  const std::string tag = ".seed" + std::to_string(seed_index);
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + tag;  // no extension: plain append
  return path.substr(0, dot) + tag + path.substr(dot);
}

}  // namespace

Telemetry::Telemetry(const TelemetryOptions& opts) : opts_(opts) {
  switch (opts_.sink) {
    case TelemetryOptions::Sink::kFile:
      sink_ = std::make_unique<FileSink>(opts_.events_path);
      break;
    case TelemetryOptions::Sink::kRing: {
      auto ring = std::make_unique<RingBufferSink>(opts_.ring_capacity);
      ring_ = ring.get();
      sink_ = std::move(ring);
      break;
    }
    case TelemetryOptions::Sink::kNull: sink_ = std::make_unique<NullSink>();
  }
  if (opts_.trace_phases) tracer_ = std::make_unique<TraceRecorder>();
}

Telemetry::~Telemetry() { flush(); }

void Telemetry::flush() {
  sink_->flush();
  if (flushed_) return;
  flushed_ = true;
  if (tracer_ != nullptr && !opts_.trace_path.empty())
    tracer_->write_chrome_json(opts_.trace_path);
  if (!opts_.metrics_path.empty()) {
    std::ofstream out(opts_.metrics_path);
    if (out) out << metrics_.to_json() << "\n";
  }
}

TelemetryOptions Telemetry::with_seed_suffix(TelemetryOptions opts,
                                             std::size_t seed_index) {
  opts.events_path = seed_suffixed(opts.events_path, seed_index);
  opts.trace_path = seed_suffixed(opts.trace_path, seed_index);
  opts.metrics_path = seed_suffixed(opts.metrics_path, seed_index);
  return opts;
}

}  // namespace qlec::obs
