//===- energy/EnergyModel.cpp ---------------------------------------------===//

#include "energy/EnergyModel.h"

#include "common/StringUtil.h"
#include "core/HeteroSimulator.h"
#include "memory/MemorySystem.h"

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
                                   MemorySystem &Mem, const RunResult &Result,
                                   bool PciFabric) {
  EnergyReport Report;

  // Cores: one event per retired instruction (warp ops on the GPU).
  Report.CoreNj += double(Result.CpuTotal.Insts) * Params.CpuInstPj / 1e3;
  Report.CoreNj += double(Result.GpuTotal.Insts) * Params.GpuInstPj / 1e3;

  // Caches.
  uint64_t L1Accesses =
      Mem.cpuL1().stats().Accesses + Mem.gpuL1().stats().Accesses;
  Report.CacheNj += double(L1Accesses) * Params.L1AccessPj / 1e3;
  Report.CacheNj +=
      double(Mem.cpuL2().stats().Accesses) * Params.L2AccessPj / 1e3;
  Report.CacheNj += double(Mem.l3().stats().Accesses) * Params.L3AccessPj / 1e3;
  uint64_t SmemAccesses =
      Mem.scratchpad().readCount() + Mem.scratchpad().writeCount();
  Report.CacheNj += double(SmemAccesses) * Params.ScratchpadPj / 1e3;

  // DRAM (both devices when discrete).
  uint64_t DramLines =
      Mem.cpuDram().stats().Reads + Mem.cpuDram().stats().Writes;
  if (&Mem.gpuDram() != &Mem.cpuDram())
    DramLines += Mem.gpuDram().stats().Reads + Mem.gpuDram().stats().Writes;
  Report.DramNj += double(DramLines) * Params.DramLinePj / 1e3;

  // Ring traffic.
  Report.NetworkNj +=
      double(Mem.ring().stats().TotalHops) * Params.RingHopPj / 1e3;

  // Communication fabric, faults, and page walks.
  double PerByte = PciFabric ? Params.PciPerBytePj : Params.MemCtrlPerBytePj;
  Report.CommNj += double(Result.TransferredBytes) * PerByte / 1e3;
  Report.CommNj += double(Result.PageFaults) * Params.PageFaultNj;
  uint64_t TlbMisses = Mem.tlb(PuKind::Cpu).stats().Misses +
                       Mem.tlb(PuKind::Gpu).stats().Misses;
  Report.CommNj += double(TlbMisses) * Params.TlbMissPj / 1e3;

  return Report;
}
