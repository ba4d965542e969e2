//===- energy/EnergyModel.h - Design-point energy accounting ----*- C++ -*-===//
///
/// \file
/// Event-based energy accounting for a simulated run. The paper's
/// conclusion motivates the partially shared space with "opportunities to
/// optimize hardware and save power/energy"; this model quantifies that:
/// each architectural event (cache access per level, DRAM line, ring hop,
/// executed instruction, transferred byte, page fault) carries an energy
/// cost, and a run's counters are folded into a per-component report.
///
/// Default per-event energies are CACTI-class ballpark numbers for a
/// ~32nm node (the paper's Sandy-Bridge/Fermi era).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_ENERGY_ENERGYMODEL_H
#define HETSIM_ENERGY_ENERGYMODEL_H

#include "common/Types.h"

#include <string>

namespace hetsim {

class MetricsSnapshot;
struct RunResult;

/// Per-event energies in picojoules.
struct EnergyParams {
  double L1AccessPj = 15;       ///< 32KB L1 access.
  double L2AccessPj = 45;       ///< 256KB L2 access.
  double L3AccessPj = 180;      ///< 8MB L3 slice access.
  double DramLinePj = 2600;     ///< 64B DDR3 line (~40pJ/B class).
  double RingHopPj = 25;        ///< One flit-hop on the ring.
  double CpuInstPj = 350;       ///< Big-core instruction (incl. pipeline).
  double GpuInstPj = 120;       ///< SIMD warp instruction, per warp op.
  double ScratchpadPj = 8;      ///< 16KB scratchpad access.
  double PciPerBytePj = 250;    ///< PCI-E 2.0 transfer energy per byte.
  double MemCtrlPerBytePj = 60; ///< On-chip copy energy per byte.
  double PageFaultNj = 80;      ///< Fault handling (nanojoules!).
  double TlbMissPj = 50;        ///< Page walk.
};

/// Energy of one run, split by component (nanojoules).
struct EnergyReport {
  double CoreNj = 0;      ///< CPU + GPU instruction energy.
  double CacheNj = 0;     ///< L1 + L2 + L3 + scratchpad.
  double DramNj = 0;
  double NetworkNj = 0;   ///< Ring traffic.
  double CommNj = 0;      ///< Transfer fabric + page faults + TLB walks.

  double totalNj() const {
    return CoreNj + CacheNj + DramNj + NetworkNj + CommNj;
  }
  double totalUj() const { return totalNj() / 1e3; }

  /// Renders a one-line summary ("total 12.3uJ: core 40%, ...").
  std::string renderSummary() const;
};

/// Computes the energy of a finished run from its metrics snapshot
/// (HeteroSimulator::collectMetrics, or SweepRunner::metrics) and the
/// run result. \p PciFabric selects the per-byte transfer energy (true:
/// PCI-E; false: on-chip memory-controller path).
EnergyReport computeEnergy(const EnergyParams &Params,
                           const MetricsSnapshot &Metrics,
                           const RunResult &Result, bool PciFabric);

} // namespace hetsim

#endif // HETSIM_ENERGY_ENERGYMODEL_H
