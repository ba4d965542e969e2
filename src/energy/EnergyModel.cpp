//===- energy/EnergyModel.cpp ---------------------------------------------===//

#include "energy/EnergyModel.h"

#include "common/StringUtil.h"
#include "core/HeteroSimulator.h"
#include "obs/Metrics.h"

using namespace hetsim;

std::string EnergyReport::renderSummary() const {
  double Total = totalNj();
  auto Pct = [Total](double Part) {
    return Total == 0 ? std::string("0%")
                      : formatPercent(Part / Total, 0);
  };
  std::string Out = "total " + formatDouble(totalUj(), 1) + "uJ: ";
  Out += "core " + Pct(CoreNj) + ", cache " + Pct(CacheNj) + ", dram " +
         Pct(DramNj) + ", noc " + Pct(NetworkNj) + ", comm " + Pct(CommNj);
  return Out;
}

EnergyReport hetsim::computeEnergy(const EnergyParams &Params,
                                   const MetricsSnapshot &Metrics,
                                   const RunResult &Result, bool PciFabric) {
  EnergyReport Report;

  // Cores: one event per retired instruction (warp ops on the GPU).
  Report.CoreNj += double(Result.CpuTotal.Insts) * Params.CpuInstPj / 1e3;
  Report.CoreNj += double(Result.GpuTotal.Insts) * Params.GpuInstPj / 1e3;

  // Caches.
  double L1Accesses = Metrics.get("cache.cpu_l1.accesses") +
                      Metrics.get("cache.gpu_l1.accesses");
  Report.CacheNj += L1Accesses * Params.L1AccessPj / 1e3;
  Report.CacheNj +=
      Metrics.get("cache.cpu_l2.accesses") * Params.L2AccessPj / 1e3;
  Report.CacheNj += Metrics.get("cache.l3.accesses") * Params.L3AccessPj / 1e3;
  double SmemAccesses = Metrics.get("smem.reads") + Metrics.get("smem.writes");
  Report.CacheNj += SmemAccesses * Params.ScratchpadPj / 1e3;

  // DRAM (both devices when discrete; "dram.gpu.*" exists only then).
  double DramLines =
      Metrics.get("dram.cpu.reads") + Metrics.get("dram.cpu.writes") +
      Metrics.get("dram.gpu.reads") + Metrics.get("dram.gpu.writes");
  Report.DramNj += DramLines * Params.DramLinePj / 1e3;

  // Ring traffic.
  Report.NetworkNj += Metrics.get("noc.hops") * Params.RingHopPj / 1e3;

  // Communication fabric, faults, and page walks.
  double PerByte = PciFabric ? Params.PciPerBytePj : Params.MemCtrlPerBytePj;
  Report.CommNj += double(Result.TransferredBytes) * PerByte / 1e3;
  Report.CommNj += double(Result.PageFaults) * Params.PageFaultNj;
  double TlbMisses =
      Metrics.get("tlb.cpu.misses") + Metrics.get("tlb.gpu.misses");
  Report.CommNj += TlbMisses * Params.TlbMissPj / 1e3;

  return Report;
}
