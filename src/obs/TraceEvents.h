//===- obs/TraceEvents.h - Chrome trace-event timeline ----------*- C++ -*-===//
///
/// \file
/// An in-memory timeline of simulated activity, exported in the Chrome
/// trace-event JSON format (load the file in chrome://tracing or
/// Perfetto). Tracks are rendered as named threads of one process:
/// kernel phases on the cpu/gpu tracks, explicit copies on the fabric
/// track, driver/runtime overheads (ownership, faults) on the driver
/// track. Background-queue drains and coherence traffic are too frequent
/// to record one by one: each is one run-long summary span, on the dram
/// and the coherence track.
///
/// A run records a few events per lowered step. Writing the file is
/// gated by the `HETSIM_TRACE_EVENTS` environment variable, which names
/// an output *directory*: parallel sweep workers each write their own
/// `<dir>/<run>.trace.json` file, so no cross-thread file clobbering.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_OBS_TRACEEVENTS_H
#define HETSIM_OBS_TRACEEVENTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace hetsim {

/// Which timeline row an event belongs to.
enum class TraceTrack : uint8_t { Cpu, Gpu, Fabric, Dram, Coherence, Driver };

constexpr unsigned NumTraceTracks = 6;

/// Stable lowercase track name ("cpu", "fabric", ...).
const char *traceTrackName(TraceTrack Track);

/// An append-only event log. All timestamps are microseconds of
/// simulated time (the trace-event format's native unit).
class TraceEventLog {
public:
  /// Records one complete ("ph":"X") event.
  void complete(TraceTrack Track, std::string Name, double StartUs,
                double DurUs);

  /// Records one complete event carrying a single numeric argument
  /// (e.g. bytes moved, lines drained).
  void complete(TraceTrack Track, std::string Name, double StartUs,
                double DurUs, std::string ArgKey, uint64_t ArgValue);

  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  void clear() { Events.clear(); }

  /// Renders the full Chrome trace-event document. \p ProcessName labels
  /// the process row (typically "<system>/<kernel>").
  std::string renderChromeJson(const std::string &ProcessName) const;

  /// Renders and writes the document to \p Path. Returns false on I/O
  /// failure.
  bool writeFile(const std::string &Path,
                 const std::string &ProcessName) const;

private:
  struct Event {
    std::string Name;
    std::string ArgKey; ///< Empty when the event has no argument.
    double StartUs = 0;
    double DurUs = 0;
    uint64_t ArgValue = 0;
    TraceTrack Track = TraceTrack::Cpu;
  };

  std::vector<Event> Events;
};

/// True when `HETSIM_TRACE_EVENTS` is set to a non-empty value.
bool traceEventsEnabled();

/// The directory named by `HETSIM_TRACE_EVENTS` ("" when disabled).
std::string traceEventsDir();

/// `<traceEventsDir()>/<RunName>.trace.json`, with characters outside
/// [A-Za-z0-9._-] in \p RunName replaced by '_'. Empty when disabled.
std::string traceEventPath(const std::string &RunName);

} // namespace hetsim

#endif // HETSIM_OBS_TRACEEVENTS_H
