//===- memory/MemorySystem.cpp --------------------------------------------===//

#include "memory/MemorySystem.h"

#include "common/Error.h"
#include "common/Units.h"

#include <cstdio>

using namespace hetsim;

MemorySystem::MemorySystem(const MemHierConfig &Cfg)
    : Config(Cfg), CpuL1(Cfg.CpuL1), CpuL2(Cfg.CpuL2), GpuL1(Cfg.GpuL1),
      L3(Cfg.L3), CpuMshr(Cfg.CpuMshrs), GpuMshr(Cfg.GpuMshrs),
      CpuTlb(Cfg.CpuTlbEntries, Cfg.TlbWays, Cfg.CpuPageBytes),
      GpuTlb(Cfg.GpuTlbEntries, Cfg.TlbWays, Cfg.GpuPageBytes),
      CpuPhys("cpu.dram", Cfg.DeviceBytes),
      GpuPhys("gpu.dram", Cfg.DeviceBytes),
      CpuPt(PuKind::Cpu, Cfg.CpuPageBytes),
      GpuPt(PuKind::Gpu, Cfg.GpuPageBytes),
      Smem(Cfg.ScratchpadBytes, Cfg.ScratchpadLatency),
      Prefetcher(Cfg.Prefetch) {
  if (Cfg.UseMeshNoc)
    Noc = std::make_unique<MeshNoc>(Cfg.Mesh);
  else
    Noc = std::make_unique<RingBus>(Cfg.Ring);
  CpuDram = std::make_unique<DramSystem>(Cfg.Dram);
  if (Cfg.SeparateGpuDram)
    GpuDramDevice = std::make_unique<DramSystem>(Cfg.Dram);

  // Register the DRAM conservation counters once; references stay valid
  // until Stats.reset(), which this class never calls.
  DramCpuDemand = &Stats.counterRef("dram.cpu.demand");
  DramCpuWritebacks = &Stats.counterRef("dram.cpu.writebacks");
  DramCpuPrefetchReads = &Stats.counterRef("dram.cpu.prefetch_reads");
  BgDrains = &Stats.counterRef("dram.cpu.bg_drains");
  BgRequests = &Stats.counterRef("dram.cpu.bg_reqs");
  BgDrainCycles = &Stats.histogramRef("dram.cpu.bg_drain_cycles");

  MemCohRemote = &Stats.counterRef("mem.coh_remote");
  MemCohWritebacks = &Stats.counterRef("mem.coh_writebacks");
  MemPrefetchFills = &Stats.counterRef("mem.prefetch_fills");

  // The per-PU slots, reported under one name where both PUs count.
  const PuCounters &Cpu = Counts[puIndex(PuKind::Cpu)];
  const PuCounters &Gpu = Counts[puIndex(PuKind::Gpu)];
  Stats.bindCounter("mem.cpu_accesses", Cpu.Accesses);
  Stats.bindCounter("mem.gpu_accesses", Gpu.Accesses);
  Stats.bindCounter("mem.gpu_l1_writebacks", Gpu.L1Writebacks);
  Stats.bindCounter("dram.gpu.demand", Gpu.OwnDramDemand);
}

void MemorySystem::drainQueued(Cycle NowCpu) {
  uint64_t Pending = CpuDram->queuedRequests();
  Cycle Done = CpuDram->drainFrFcfs(NowCpu);
  Cycle Duration = Done > NowCpu ? Done - NowCpu : 0;
  ++*BgDrains;
  *BgRequests += Pending;
  BgDrainCycles->addSample(Duration);
}

DramSystem &MemorySystem::gpuDram() {
  return GpuDramDevice ? *GpuDramDevice : *CpuDram;
}

void MemorySystem::mapRange(PuKind Pu, Addr VBase, uint64_t Bytes) {
  // A discrete GPU memory backs GPU-private and (ADSM) shared ranges;
  // everything else lives in the CPU/unified device.
  if (Pu == PuKind::Cpu) {
    CpuPt.mapRange(VBase, Bytes, CpuPhys);
    return;
  }
  PhysicalMemory &Device = Config.SeparateGpuDram ? GpuPhys : CpuPhys;
  GpuPt.mapRange(VBase, Bytes, Device);
}

Addr MemorySystem::translateMiss(PuKind Pu, Addr VAddr) {
  std::optional<Addr> Frame = pageTable(Pu).frameOf(VAddr);
  if (!Frame)
    fatalAccess(Pu, VAddr, "no page is mapped there");
  tlb(Pu).fill(VAddr, *Frame);
  return *Frame;
}

void MemorySystem::fatalAccess(PuKind Pu, Addr VAddr, const char *Problem) {
  char Message[160];
  std::snprintf(Message, sizeof(Message),
                "%s access to virtual address 0x%llx (%s region): %s",
                puKindName(Pu), static_cast<unsigned long long>(VAddr),
                MemRegionNames[unsigned(regionOf(VAddr))], Problem);
  fatalError(Message);
}

void MemorySystem::setAddressSpace(AddressSpaceKind Kind) {
  for (PuKind Pu : {PuKind::Cpu, PuKind::Gpu}) {
    uint8_t Mask = 0;
    for (unsigned R = 0; R != NumMemRegions; ++R)
      if (canAccess(Kind, Pu, MemRegion(R)))
        Mask |= uint8_t(1u << R);
    Visible[puIndex(Pu)] = Mask;
  }
}

Cycle MemorySystem::coherenceCycles(PuKind Requestor, Addr Line,
                                    bool IsWrite) {
  CoherenceAction Action = Dir.onAccess(Requestor, Line, IsWrite);
  if (!Action.InvalidateRemote && !Action.FetchFromRemote)
    return 0;

  ++*MemCohRemote;
  // Remote operations touch the other PU's private caches.
  if (Requestor == PuKind::Cpu) {
    if (Action.FetchFromRemote) {
      if (IsWrite ? GpuL1.invalidate(Line) : GpuL1.downgradeToShared(Line))
        ++*MemCohWritebacks;
    } else if (Action.InvalidateRemote) {
      GpuL1.invalidate(Line);
    }
  } else {
    if (Action.FetchFromRemote) {
      bool Dirty1 =
          IsWrite ? CpuL1.invalidate(Line) : CpuL1.downgradeToShared(Line);
      bool Dirty2 =
          IsWrite ? CpuL2.invalidate(Line) : CpuL2.downgradeToShared(Line);
      if (Dirty1 || Dirty2)
        ++*MemCohWritebacks;
    } else if (Action.InvalidateRemote) {
      CpuL1.invalidate(Line);
      CpuL2.invalidate(Line);
    }
  }
  // Each protocol message crosses the NoC between the requestor and the
  // directory's home.
  const Cycle CpuCycles =
      Cycle(Action.Messages) *
      Noc->uncontendedLatency(ring::CpuStop, ring::MemCtrlStop);
  return convertCycles(PuKind::Cpu, Requestor, CpuCycles);
}

Cycle MemorySystem::uncoreAccess(PuKind Pu, Addr PAddr, bool IsWrite,
                                 Cycle NowCpu, bool ExplicitHint,
                                 HitLevel &Level) {
  unsigned SourceStop = Pu == PuKind::Cpu ? ring::CpuStop : ring::GpuStop;

  // A GPU that shares no LLC and has no device of its own (Fusion) skips
  // the ring/L3 and goes straight to the one DRAM.
  if (Pu == PuKind::Gpu && !Config.GpuSharesL3) {
    Level = HitLevel::Dram;
    ++*DramCpuDemand;
    return CpuDram->access(PAddr, NowCpu, IsWrite);
  }

  unsigned TileStop = Noc->tileStopFor(PAddr);
  Cycle AtTile = Noc->traverse(SourceStop, TileStop, NowCpu);
  CacheAccessResult L3Result = L3.access(PAddr, IsWrite, ExplicitHint);
  Cycle ReturnHops = Noc->uncontendedLatency(TileStop, SourceStop);

  if (L3Result.Hit) {
    Level = HitLevel::L3;
    return AtTile + L3.config().HitLatency + ReturnHops;
  }

  if (L3Result.WroteBack) {
    CpuDram->enqueue(L3Result.VictimAddr, /*IsWrite=*/true);
    ++*DramCpuWritebacks;
  }

  Level = HitLevel::Dram;
  Cycle AtCtrl =
      Noc->traverse(TileStop, ring::MemCtrlStop,
                    AtTile + L3.config().HitLatency /*tag check*/);
  ++*DramCpuDemand;
  Cycle Done = CpuDram->access(PAddr, AtCtrl, IsWrite);
  Cycle BackToTile =
      Done + Noc->uncontendedLatency(ring::MemCtrlStop, TileStop);
  return BackToTile + ReturnHops;
}

MemAccessResult MemorySystem::accessBeyondL1(PuKind Pu, Addr Line,
                                             bool IsWrite, Cycle NowPu,
                                             bool ExplicitHint,
                                             const CacheAccessResult &L1Result,
                                             Cycle Latency,
                                             MemAccessResult Result) {
  const bool IsCpu = Pu == PuKind::Cpu;
  if (L1Result.WroteBack) {
    if (IsCpu)
      CpuL2.access(L1Result.VictimAddr, /*IsWrite=*/true);
    else
      ++Counts[puIndex(PuKind::Gpu)].L1Writebacks;
  }

  if (IsCpu) {
    CacheAccessResult L2Result = CpuL2.access(Line, IsWrite);
    Latency += CpuL2.config().HitLatency;

    // The L2 stream prefetcher trains on the L2 access stream and fills
    // future lines directly into the L2 (fill time is hidden; the win is
    // the later hit, the cost shows up as DRAM traffic).
    if (Config.EnableL2Prefetch) {
      for (Addr PrefetchLine : Prefetcher.onAccess(Line)) {
        if (CpuL2.probe(PrefetchLine))
          continue;
        ++*MemPrefetchFills;
        CacheAccessResult Fill = CpuL2.access(PrefetchLine, false);
        if (Fill.WroteBack) {
          CpuDram->enqueue(Fill.VictimAddr, /*IsWrite=*/true);
          ++*DramCpuWritebacks;
        }
        CpuDram->enqueue(PrefetchLine, /*IsWrite=*/false);
        ++*DramCpuPrefetchReads;
      }
    }

    if (L2Result.Hit) {
      // Prefetch fills above may have posted background traffic even on
      // an L2 hit; drain it here so it is neither left to accumulate nor
      // mischarged to a later transfer. CPU accesses run in the uncore
      // clock already.
      drainBackground(NowPu + Latency);
      Result.Level = HitLevel::L2;
      Result.Latency = Latency;
      return Result;
    }
    if (L2Result.WroteBack) {
      CpuDram->enqueue(L2Result.VictimAddr, /*IsWrite=*/true);
      ++*DramCpuWritebacks;
    }
  }

  // 4. Uncore (CPU clock domain).
  Cycle NowCpu = IsCpu ? NowPu + Latency
                       : convertCycles(PuKind::Gpu, PuKind::Cpu,
                                       NowPu + Latency);
  Cycle DoneCpu;
  if (!IsCpu && GpuDramDevice && !Config.GpuSharesL3) {
    // A discrete GPU's miss reaches only its own device. It posts nothing
    // to the CPU device's background queue, which every other access
    // leaves empty, so it has nothing to drain; and it must not read that
    // queue, which the CPU half of a concurrent round owns (DESIGN.md §6
    // rule 2, §11).
    Result.Level = HitLevel::Dram;
    ++Counts[puIndex(PuKind::Gpu)].OwnDramDemand;
    DoneCpu = GpuDramDevice->access(Line, NowCpu, IsWrite);
  } else {
    DoneCpu =
        uncoreAccess(Pu, Line, IsWrite, NowCpu, ExplicitHint, Result.Level);
    // Posted victim writebacks (L2/L3 evictions above) drain behind the
    // demand access on the uncore timeline.
    drainBackground(DoneCpu);
  }
  Cycle UncoreCpuCycles = DoneCpu > NowCpu ? DoneCpu - NowCpu : 0;
  Cycle UncorePu = IsCpu ? UncoreCpuCycles
                         : convertCycles(PuKind::Cpu, PuKind::Gpu,
                                         UncoreCpuCycles);

  // 5. MSHR backpressure at the private-miss boundary: a full file stalls
  // the miss until the earliest in-flight fill retires.
  MshrFile &Mshr = IsCpu ? CpuMshr : GpuMshr;
  const Cycle Stall = Mshr.onMiss(NowPu, NowPu + Latency + UncorePu);
  Result.Latency = Latency + UncorePu + Stall;
  return Result;
}

Cycle MemorySystem::pushToShared(PuKind Pu, Addr VBase, uint64_t Bytes,
                                 Cycle NowPu) {
  if (Bytes == 0)
    return 0;
  PageTable &Pt = Pu == PuKind::Cpu ? CpuPt : GpuPt;
  unsigned SourceStop = Pu == PuKind::Cpu ? ring::CpuStop : ring::GpuStop;
  uint64_t Lines = ceilDiv(Bytes, CacheLineBytes);
  Stats.increment("mem.push_ops");
  Stats.increment("mem.push_lines", Lines);

  // One NoC transit to start the stream, then pipelined per-line fills.
  Cycle CpuCost = Noc->uncontendedLatency(SourceStop, ring::L3Tile0);
  for (uint64_t I = 0; I != Lines; ++I) {
    Addr VAddr = VBase + I * CacheLineBytes;
    std::optional<Addr> PAddr = Pt.translate(VAddr);
    if (!PAddr)
      fatalAccess(Pu, VAddr, "no page is mapped there");
    CacheAccessResult Fill =
        L3.access(alignDown(*PAddr, CacheLineBytes), /*IsWrite=*/false,
                   /*MarkExplicit=*/true);
    if (Fill.WroteBack) {
      // The staged fill evicted a dirty line: that victim writeback is
      // real DRAM traffic, same as every other L3-fill path.
      CpuDram->enqueue(Fill.VictimAddr, /*IsWrite=*/true);
      ++*DramCpuWritebacks;
    }
    CpuCost += 2; // Pipelined fill occupancy per line.
  }
  Cycle NowCpu = Pu == PuKind::Cpu
                     ? NowPu
                     : convertCycles(PuKind::Gpu, PuKind::Cpu, NowPu);
  drainBackground(NowCpu + CpuCost);
  return Pu == PuKind::Cpu
             ? CpuCost
             : convertCycles(PuKind::Cpu, PuKind::Gpu, CpuCost);
}

Cycle MemorySystem::remapRange(PuKind Pu, Addr OldBase, Addr NewBase,
                               uint64_t Bytes, Cycle RemapCyclesPerPage) {
  if (Bytes == 0)
    return 0;
  PageTable &Pt = Pu == PuKind::Cpu ? CpuPt : GpuPt;
  Pt.unmapRange(OldBase, Bytes);
  mapRange(Pu, NewBase, Bytes);
  tlb(Pu).flush();
  uint64_t Pages = ceilDiv(Bytes, Pt.pageBytes());
  Stats.increment("mem.remap_pages", Pages);
  // Per-page table update plus a fixed TLB-shootdown cost.
  return Pages * RemapCyclesPerPage + Config.TlbMissPenalty;
}

uint64_t MemorySystem::flushPrivate(PuKind Pu) {
  uint64_t Writebacks = 0;
  auto Count = [&Writebacks](Addr) { ++Writebacks; };
  if (Pu == PuKind::Cpu) {
    CpuL1.flushAll(Count);
    CpuL2.flushAll(Count);
  } else {
    GpuL1.flushAll(Count);
  }
  Stats.increment("mem.flush_writebacks", Writebacks);
  return Writebacks;
}
