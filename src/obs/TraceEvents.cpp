//===- obs/TraceEvents.cpp ------------------------------------------------===//

#include "obs/TraceEvents.h"

#include "common/Error.h"
#include "obs/Json.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>

using namespace hetsim;

const char *hetsim::traceTrackName(TraceTrack Track) {
  switch (Track) {
  case TraceTrack::Cpu:
    return "cpu";
  case TraceTrack::Gpu:
    return "gpu";
  case TraceTrack::Fabric:
    return "fabric";
  case TraceTrack::Dram:
    return "dram";
  case TraceTrack::Coherence:
    return "coherence";
  case TraceTrack::Driver:
    return "driver";
  }
  hetsim_unreachable("unknown TraceTrack");
}

void TraceEventLog::complete(TraceTrack Track, std::string Name,
                             double StartUs, double DurUs) {
  complete(Track, std::move(Name), StartUs, DurUs, std::string(), 0);
}

void TraceEventLog::complete(TraceTrack Track, std::string Name,
                             double StartUs, double DurUs, std::string ArgKey,
                             uint64_t ArgValue) {
  Event E;
  E.Name = std::move(Name);
  E.ArgKey = std::move(ArgKey);
  E.StartUs = StartUs;
  E.DurUs = DurUs;
  E.ArgValue = ArgValue;
  E.Track = Track;
  Events.push_back(std::move(E));
}

std::string
TraceEventLog::renderChromeJson(const std::string &ProcessName) const {
  JsonWriter W;
  W.beginObject();
  W.beginArray("traceEvents");

  // Metadata events name the process and one thread per track so the
  // viewer shows readable rows instead of bare pid/tid integers.
  W.beginObject();
  W.value("ph", "M");
  W.value("pid", 1);
  W.value("tid", 0);
  W.value("name", "process_name");
  W.beginObject("args");
  W.value("name", ProcessName);
  W.endObject();
  W.endObject();
  for (unsigned T = 0; T != NumTraceTracks; ++T) {
    W.beginObject();
    W.value("ph", "M");
    W.value("pid", 1);
    W.value("tid", int(T));
    W.value("name", "thread_name");
    W.beginObject("args");
    W.value("name", traceTrackName(TraceTrack(T)));
    W.endObject();
    W.endObject();
  }

  for (const Event &E : Events) {
    W.beginObject();
    W.value("ph", "X");
    W.value("pid", 1);
    W.value("tid", int(E.Track));
    W.value("name", E.Name);
    W.value("cat", traceTrackName(E.Track));
    W.value("ts", E.StartUs);
    W.value("dur", E.DurUs);
    if (!E.ArgKey.empty()) {
      W.beginObject("args");
      W.value(E.ArgKey, E.ArgValue);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.value("displayTimeUnit", "ns");
  W.beginObject("otherData");
  W.value("events", uint64_t(Events.size()));
  W.endObject();
  W.endObject();
  return W.take();
}

bool TraceEventLog::writeFile(const std::string &Path,
                              const std::string &ProcessName) const {
  std::error_code Ec;
  std::filesystem::path Parent = std::filesystem::path(Path).parent_path();
  if (!Parent.empty())
    std::filesystem::create_directories(Parent, Ec);
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << renderChromeJson(ProcessName) << '\n';
  return bool(Out);
}

bool hetsim::traceEventsEnabled() { return !traceEventsDir().empty(); }

std::string hetsim::traceEventsDir() {
  const char *Dir = std::getenv("HETSIM_TRACE_EVENTS");
  return Dir ? std::string(Dir) : std::string();
}

std::string hetsim::traceEventPath(const std::string &RunName) {
  std::string Dir = traceEventsDir();
  if (Dir.empty())
    return std::string();
  std::string Safe;
  Safe.reserve(RunName.size());
  for (char C : RunName) {
    bool Keep = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    Safe += Keep ? C : '_';
  }
  return Dir + "/" + Safe + ".trace.json";
}
