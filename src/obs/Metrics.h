//===- obs/Metrics.h - Flat metrics snapshots and conservation --*- C++ -*-===//
///
/// \file
/// The metrics side of the observability layer: a flat name->value
/// snapshot captured from a MemorySystem (cache/DRAM/NoC/TLB structs,
/// registry counters, histogram summaries), a JSON renderer/validator
/// for the `out/metrics.json` artifact, and the DRAM traffic
/// conservation check that turns this PR's accounting bugfixes into a
/// permanently-enforced invariant.
///
/// Conservation contract: every request the memory system submits to a
/// DRAM device is charged, at the submission site, to exactly one
/// source-category counter —
///   dram.cpu.demand          demand misses served by the CPU/unified device
///   dram.cpu.writebacks      L2/L3 victim writebacks (incl. pushToShared)
///   dram.cpu.prefetch_reads  L2 stream-prefetch fills
///   dram.cpu.transfer_reqs   fused memory-controller transfer requests
///   dram.gpu.demand          demand misses served by a discrete GPU device
/// so the device's served total (DramStats Reads+Writes) must equal the
/// category sum, and the FR-FCFS background queue must be empty whenever
/// a run is quiescent.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_OBS_METRICS_H
#define HETSIM_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hetsim {

class JsonWriter;
class MemorySystem;

/// A flat, sorted name->value map of everything one run observed.
/// Components and the simulator add values under dotted lowercase names
/// (the StatRegistry convention); duplicates overwrite.
class MetricsSnapshot {
public:
  void add(const std::string &Name, double Value) { Values[Name] = Value; }

  bool has(const std::string &Name) const { return Values.count(Name) != 0; }
  double get(const std::string &Name) const {
    auto It = Values.find(Name);
    return It == Values.end() ? 0.0 : It->second;
  }
  size_t size() const { return Values.size(); }
  const std::map<std::string, double> &values() const { return Values; }

private:
  std::map<std::string, double> Values;
};

/// Captures the full memory-system state into \p Out: per-cache structs
/// ("cache.cpu_l1.hits"), DRAM devices ("dram.cpu.reads"), NoC,
/// scratchpad ("smem.reads"/"smem.writes"), TLBs, prefetcher, every
/// registry counter verbatim, and histogram summaries
/// ("<name>.count/.sum/.mean/.max/.p50/.p99").
void captureMetrics(MemorySystem &Mem, MetricsSnapshot &Out);

/// Result of the DRAM traffic-conservation audit.
struct ConservationReport {
  bool Ok = true;
  std::vector<std::string> Violations;

  /// All violations joined with "; " ("ok" when none).
  std::string summary() const;
};

/// Audits \p Mem against the conservation contract above: background
/// queues empty, and each device's served requests equal to the sum of
/// its charged source categories.
ConservationReport checkConservation(MemorySystem &Mem);

/// Writes `"Key":{"name":value,...}` into an open JSON object scope.
void appendMetricsObject(JsonWriter &W, const std::string &Key,
                         const MetricsSnapshot &M);

/// Renders the single-run document:
/// `{"schema":"hetsim-metrics-v1","metrics":{...}}`.
std::string renderMetricsJson(const MetricsSnapshot &M);

/// Renders and writes the single-run document to \p Path.
bool writeMetricsJson(const std::string &Path, const MetricsSnapshot &M);

/// Schema check for metrics documents. Accepts the single-run shape
/// (schema "hetsim-metrics-v1" + "metrics" object of numbers) and the
/// sweep shape (schema "hetsim-sweep-metrics-v1" + "points" array whose
/// elements each carry a "metrics" object of numbers). Returns false and
/// sets \p Error on any deviation.
bool validateMetricsJson(const std::string &Text, std::string &Error);

} // namespace hetsim

#endif // HETSIM_OBS_METRICS_H
