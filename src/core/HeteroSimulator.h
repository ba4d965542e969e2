//===- core/HeteroSimulator.h - The co-simulation driver --------*- C++ -*-===//
///
/// \file
/// Drives one lowered program on one system configuration: the CPU core
/// executes serial segments, both cores execute parallel rounds, and the
/// configured communication fabric executes transfers. Execution time is
/// split into the paper's three categories (Section V-A): sequential,
/// parallel, and communication — where communication is everything a
/// mechanism adds to the makespan (synchronous copy time, async-copy
/// stalls, ownership actions, and first-touch page-fault handling).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_HETEROSIMULATOR_H
#define HETSIM_CORE_HETEROSIMULATOR_H

#include "comm/CommFabric.h"
#include "core/Lowering.h"
#include "obs/Metrics.h"
#include "obs/Phase.h"
#include "obs/TraceEvents.h"

#include <memory>

namespace hetsim {

/// The three-way time split of Figure 5, in nanoseconds.
struct TimeBreakdown {
  double SequentialNs = 0;
  double ParallelNs = 0;
  double CommunicationNs = 0;

  double totalNs() const {
    return SequentialNs + ParallelNs + CommunicationNs;
  }
  double commFraction() const {
    double Total = totalNs();
    return Total == 0 ? 0.0 : CommunicationNs / Total;
  }
};

/// Everything one run produces.
struct RunResult {
  TimeBreakdown Time;
  /// Finer-grained attribution of the same wall-clock: phase sums
  /// reconcile exactly with Time (compute == sequential+parallel,
  /// communication == the rest).
  PhaseBreakdown Phases;
  SegmentResult CpuTotal;     ///< Aggregated over CPU segments.
  SegmentResult GpuTotal;     ///< Aggregated over GPU segments.
  uint64_t TransferredBytes = 0;
  uint64_t TransferCount = 0;
  uint64_t PageFaults = 0;    ///< Batched first-touch faults charged.
  uint64_t OwnershipActions = 0;
  double PushNs = 0;          ///< Explicit-locality push time (in comm).
  unsigned CommSourceLines = 0; ///< Table V cell for this (kernel, model).
};

/// True when a parallel round's CPU and GPU halves share no mutable state:
/// the GPU has a memory device of its own, shares no LLC with the CPU and
/// keeps no coherence with it, and the round is not interleaved through a
/// shared uncore. Holds for CPU+GPU, LRB and GMAC under any override, and
/// for no other shipped system. HeteroSimulator then runs each round's GPU
/// half on a helper thread alongside the CPU half (DESIGN.md §11).
bool roundHalvesShareNothing(const SystemConfig &Config);

/// One simulated system instance. Construct once per configuration; each
/// run() gets a fresh memory system so runs are independent (the first
/// one takes the machine the constructor built).
class HeteroSimulator {
public:
  explicit HeteroSimulator(const SystemConfig &Config);
  ~HeteroSimulator();

  /// Lowers and runs \p Kernel.
  RunResult run(KernelId Kernel);

  /// Runs an already-lowered program (for tests and custom programs).
  RunResult runLowered(const LoweredProgram &Program);

  const SystemConfig &config() const { return Config; }

  /// Runs every parallel round in the serial order (the CPU half, then the
  /// GPU half, both on the calling thread) even where
  /// roundHalvesShareNothing() holds: the oracle the differential tests
  /// hold the concurrent round against.
  void serializeRounds() { OverlapRounds = false; }

  /// The memory system of the most recent run (for post-run inspection).
  MemorySystem &memory();

  /// The event timeline of the most recent run. Populated on every run;
  /// written to `$HETSIM_TRACE_EVENTS/<system>_<kernel>.trace.json` when
  /// that variable names a directory.
  const TraceEventLog &trace() const { return Trace; }

  /// Flattens \p Result plus the last run's memory-system state into a
  /// metrics snapshot ("run.*" values over the captureMetrics() base),
  /// including the conservation verdict ("run.conservation_ok").
  MetricsSnapshot collectMetrics(const RunResult &Result);

private:
  void buildMachine();
  std::unique_ptr<CommFabric> buildFabric();
  /// Runs a parallel round's two halves from \p CpuStart (CPU cycles) and
  /// \p GpuStart (GPU cycles): the GPU half on a helper thread when
  /// OverlapRounds and a thread can be had, else after the CPU half.
  void runRoundHalves(const ExecStep &Step, Cycle CpuStart, Cycle GpuStart,
                      SegmentResult &CpuSeg, SegmentResult &GpuSeg);

  SystemConfig Config;
  std::unique_ptr<MemorySystem> Mem;
  std::unique_ptr<CpuCore> Cpu;
  std::unique_ptr<GpuCore> Gpu;
  std::unique_ptr<CommFabric> Fabric;
  TraceEventLog Trace;
  /// True while the machine is untouched since buildMachine().
  bool MachineFresh = false;
  /// roundHalvesShareNothing(Config), unless serializeRounds() cleared it.
  bool OverlapRounds;
};

} // namespace hetsim

#endif // HETSIM_CORE_HETEROSIMULATOR_H
