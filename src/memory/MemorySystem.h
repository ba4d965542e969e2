//===- memory/MemorySystem.h - The assembled memory hierarchy ---*- C++ -*-===//
///
/// \file
/// The full Table II memory system: per-PU TLBs and page tables, CPU
/// L1D+L2, GPU L1D + 16KB scratchpad, a shared 4-tile L3 over the ring
/// bus, and DDR3 DRAM — plus the design-space hooks the paper varies:
/// optional hardware coherence (MESI directory), an optional discrete GPU
/// memory, and the address-space model's visibility check. Page faults
/// and ownership handoffs are special-instruction costs (lib-pf, api-acq)
/// charged by the lowering, not per access.
///
/// Timing model: latency walk. An access descends the hierarchy, updating
/// cache/bank/ring state as it goes, and returns its total latency in the
/// requesting PU's clock domain. Uncore state (L3, ring, DRAM) is kept in
/// CPU cycles and converted at the boundary.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_MEMORYSYSTEM_H
#define HETSIM_MEMORY_MEMORYSYSTEM_H

#include "cache/Cache.h"
#include "cache/Directory.h"
#include "cache/Mshr.h"
#include "cache/Scratchpad.h"
#include "cache/StreamPrefetcher.h"
#include "common/HostLine.h"
#include "common/Stats.h"
#include "dram/Dram.h"
#include "interconnect/MeshNoc.h"
#include "interconnect/RingBus.h"
#include "memory/AddressSpaceModel.h"
#include "memory/PageTable.h"
#include "memory/Tlb.h"

#include <cassert>
#include <memory>
#include <vector>

namespace hetsim {

/// Configuration of the assembled hierarchy.
struct MemHierConfig {
  CacheConfig CpuL1 = CacheConfig::cpuL1D();
  CacheConfig CpuL2 = CacheConfig::cpuL2();
  CacheConfig GpuL1 = CacheConfig::gpuL1D();
  CacheConfig L3 = CacheConfig::sharedL3();
  DramConfig Dram;
  RingConfig Ring;
  /// Use a 2D mesh instead of the Table II ring (NoC design option).
  bool UseMeshNoc = false;
  MeshConfig Mesh;

  /// True routes GPU L1 misses through the shared L3 (integrated LLC,
  /// Sandy-Bridge style); false sends them to the GPU's own memory.
  bool GpuSharesL3 = true;
  /// True gives the GPU a discrete memory device (CPU+GPU/GMAC configs).
  bool SeparateGpuDram = false;
  /// True maintains MESI coherence between the PU private hierarchies.
  bool HwCoherence = false;

  Cycle TlbMissPenalty = 30; ///< Page-walk cycles (requester clock).
  unsigned CpuTlbEntries = 64;
  unsigned GpuTlbEntries = 32;
  unsigned TlbWays = 4;
  uint64_t CpuPageBytes = SmallPageBytes;
  uint64_t GpuPageBytes = LargePageBytes;
  unsigned CpuMshrs = 16;
  unsigned GpuMshrs = 32;
  uint64_t ScratchpadBytes = 16 * 1024;
  Cycle ScratchpadLatency = 2;
  uint64_t DeviceBytes = 1ull << 32; ///< Size of each physical device.

  /// Stream prefetching into the CPU L2 (off in the Table II baseline).
  bool EnableL2Prefetch = false;
  PrefetcherConfig Prefetch;
};

/// Which level served an access.
enum class HitLevel : uint8_t { L1, L2, L3, Dram, Scratchpad };

/// Result of one access.
struct MemAccessResult {
  Cycle Latency = 0; ///< In the requesting PU's clock.
  HitLevel Level = HitLevel::L1;
  bool TlbMiss = false;
};

/// The assembled hierarchy.
class MemorySystem {
public:
  explicit MemorySystem(const MemHierConfig &Config = MemHierConfig());

  const MemHierConfig &config() const { return Config; }

  /// Maps [VBase, VBase+Bytes) into \p Pu's page table, backed by that
  /// PU's memory device (or the unified device). The lowering maps every
  /// object before a run: an access to a page no one mapped is fatal.
  void mapRange(PuKind Pu, Addr VBase, uint64_t Bytes);

  /// Performs one demand access of at most one cache line. \p NowPu is the
  /// current cycle in \p Pu's clock; the returned latency is in the same
  /// clock. \p ExplicitHint tags the line explicitly at the L3 (hybrid
  /// locality, Section II-B5). Inline up to an L1 hit, so the cores'
  /// per-record loops inline the whole hit walk; a TLB miss, a coherence
  /// action and everything past an L1 miss are out of line.
  MemAccessResult access(PuKind Pu, Addr VAddr,
                         [[maybe_unused]] uint32_t Bytes, bool IsWrite,
                         Cycle NowPu, bool ExplicitHint = false) {
    assert(Bytes > 0 && Bytes <= CacheLineBytes &&
           "per-access footprint is at most one line");
    MemAccessResult Result;
    const bool IsCpu = Pu == PuKind::Cpu;
    PuCounters &Count = Counts[puIndex(Pu)];
    ++Count.Accesses;

    // 1. Translation. A TLB hit carries the frame; a miss walks the page
    // table and installs it.
    Tlb &MyTlb = IsCpu ? CpuTlb : GpuTlb;
    Cycle Latency = 0;
    Addr Frame;
    if (!MyTlb.lookup(VAddr, Frame)) {
      Result.TlbMiss = true;
      Latency = Config.TlbMissPenalty;
      Frame = translateMiss(Pu, VAddr);
    }
    const Addr Line = alignDown(Frame + (VAddr & (MyTlb.pageBytes() - 1)),
                                CacheLineBytes);

    // 2. Address-space visibility (Section II-A): a PU referencing space
    // the model does not give it is a program error under that model.
    const MemRegion Region = regionOf(VAddr);
    if (!(Visible[puIndex(Pu)] >> unsigned(Region) & 1)) [[unlikely]]
      fatalAccess(Pu, VAddr, "the address-space model forbids it");

    // 3. Coherence happens before the private lookup so a stale local
    // copy is refreshed/invalidated correctly.
    if (Config.HwCoherence && Region == MemRegion::Shared)
      Latency += coherenceCycles(Pu, Line, IsWrite);

    // 4. The private L1.
    Cache &L1 = IsCpu ? CpuL1 : GpuL1;
    Latency += L1.config().HitLatency;
    const CacheAccessResult L1Result = L1.access(Line, IsWrite);
    if (L1Result.Hit) {
      Result.Level = HitLevel::L1;
      Result.Latency = Latency;
      return Result;
    }
    return accessBeyondL1(Pu, Line, IsWrite, NowPu, ExplicitHint, L1Result,
                          Latency, Result);
  }

  /// Warp-wide scratchpad access with bank-conflict serialization.
  Cycle scratchpadWarpAccess(Addr Offset, uint32_t BytesPerLane,
                             unsigned Lanes, uint32_t StrideBytes,
                             bool IsWrite) {
    return Smem.warpAccess(Offset, BytesPerLane, Lanes, StrideBytes, IsWrite);
  }

  /// Explicit locality `push` (Section II-B): stages [Base, Base+Bytes)
  /// into the L3 with the explicit tag set. Returns the cost in \p Pu
  /// cycles.
  Cycle pushToShared(PuKind Pu, Addr VBase, uint64_t Bytes, Cycle NowPu);

  /// Writes back and invalidates \p Pu's private dirty lines (release
  /// semantics at ownership/kernel boundaries). Returns lines written
  /// back.
  uint64_t flushPrivate(PuKind Pu);

  /// Drains background (posted) traffic — victim writebacks and prefetch
  /// fills — pending in the CPU DRAM FR-FCFS queue, starting at \p NowCpu
  /// (CPU cycles). Drain time is recorded in "dram.cpu.bg_*" stats but
  /// billed to no requester: posted writes complete in the background,
  /// and the bank/bus busy-until state they leave behind is the physical
  /// contention later accesses observe. Called internally at every
  /// boundary that can enqueue, so the queue is empty whenever the system
  /// is quiescent; exposed for fabrics and tests that force quiescence.
  /// Inline: most accesses end here with nothing queued.
  void drainBackground(Cycle NowCpu) {
    if (CpuDram->queuedRequests() != 0)
      drainQueued(NowCpu);
  }

  /// Globalization / privatization (Section II-A3): moves the virtual
  /// range [OldBase, OldBase+Bytes) of \p Pu's space to NewBase (e.g.
  /// from a private region into the shared region). Remaps the page
  /// table and flushes the PU's TLB; the cost is per-page remap work
  /// plus the flush. Returns cycles in \p Pu's clock.
  Cycle remapRange(PuKind Pu, Addr OldBase, Addr NewBase, uint64_t Bytes,
                   Cycle RemapCyclesPerPage = 300);

  /// Checks every access against \p Kind's visibility rules (Section
  /// II-A: e.g. the GPU cannot reach CPU private space under disjoint or
  /// ADSM). A violation is a lowering bug and fatal. The rules decide by
  /// region, so their answers are tabled here once. Until the first call
  /// every region is visible, as under the unified space.
  void setAddressSpace(AddressSpaceKind Kind);

  /// Component access for tests, benches, and the comm fabrics.
  Cache &cpuL1() { return CpuL1; }
  Cache &cpuL2() { return CpuL2; }
  Cache &gpuL1() { return GpuL1; }
  Cache &l3() { return L3; }
  DramSystem &cpuDram() { return *CpuDram; }
  DramSystem &gpuDram();
  Interconnect &noc() { return *Noc; }
  Directory &directory() { return Dir; }
  Tlb &tlb(PuKind Pu) { return Pu == PuKind::Cpu ? CpuTlb : GpuTlb; }
  StreamPrefetcher &prefetcher() { return Prefetcher; }
  /// Unmap only through remapRange: it flushes the TLB, whose entries
  /// carry frames.
  PageTable &pageTable(PuKind Pu) {
    return Pu == PuKind::Cpu ? CpuPt : GpuPt;
  }
  Scratchpad &scratchpad() { return Smem; }

  /// Aggregate counters ("mem.cpu_accesses", "mem.coh_remote", ...).
  const StatRegistry &stats() const { return Stats; }
  StatRegistry &stats() { return Stats; }

private:
  /// The per-access counters one PU's walk writes, bound to the registry
  /// names noted below with StatRegistry::bindCounter(). One per PU, each
  /// on host cache lines of its own: the two halves of a concurrent round
  /// (DESIGN.md §11) never write the same line.
  struct alignas(HostLineBytes) PuCounters {
    uint64_t Accesses = 0;      ///< mem.cpu_accesses / mem.gpu_accesses
    uint64_t L1Writebacks = 0;  ///< mem.gpu_l1_writebacks (GPU only)
    uint64_t OwnDramDemand = 0; ///< dram.gpu.demand (GPU only)
  };

  /// drainBackground() once requests are queued.
  void drainQueued(Cycle NowCpu);
  /// The TLB-miss path of access(): \p VAddr's frame in \p Pu's page
  /// table, installed in the TLB. An unmapped page is fatal.
  Addr translateMiss(PuKind Pu, Addr VAddr);
  /// The cold end of the walk's checks: aborts naming the PU, the
  /// address, its region and \p Problem.
  [[noreturn, gnu::cold]] static void fatalAccess(PuKind Pu, Addr VAddr,
                                                  const char *Problem);
  /// The coherence step of access(): the directory's actions against the
  /// other PU's private caches for \p Line, and their cost in
  /// \p Requestor's cycles.
  Cycle coherenceCycles(PuKind Requestor, Addr Line, bool IsWrite);
  /// The L1-miss path of access(): L1 victim writeback, the CPU L2 and
  /// its prefetcher, the uncore, the background drain and the MSHR file.
  /// \p Latency is the walk's latency so far, L1 hit time included.
  MemAccessResult accessBeyondL1(PuKind Pu, Addr Line, bool IsWrite,
                                 Cycle NowPu, bool ExplicitHint,
                                 const CacheAccessResult &L1Result,
                                 Cycle Latency, MemAccessResult Result);
  /// Uncore walk beyond the private hierarchy; \p NowCpu in CPU cycles,
  /// returns completion cycle in CPU cycles.
  Cycle uncoreAccess(PuKind Pu, Addr PAddr, bool IsWrite, Cycle NowCpu,
                     bool ExplicitHint, HitLevel &Level);

  MemHierConfig Config;
  // Held by value: the inline hit walk reaches an L1's tag row without
  // first loading a pointer to the cache. Each component type starts on
  // host cache lines of its own (common/HostLine.h), so the CPU's and the
  // GPU's components never share one.
  Cache CpuL1;
  Cache CpuL2;
  Cache GpuL1;
  Cache L3;
  std::unique_ptr<DramSystem> CpuDram;
  std::unique_ptr<DramSystem> GpuDramDevice; // Only if SeparateGpuDram.
  std::unique_ptr<Interconnect> Noc;
  Directory Dir;
  MshrFile CpuMshr;
  MshrFile GpuMshr;
  Tlb CpuTlb;
  Tlb GpuTlb;
  PhysicalMemory CpuPhys;
  PhysicalMemory GpuPhys;
  PageTable CpuPt;
  PageTable GpuPt;
  Scratchpad Smem;
  StreamPrefetcher Prefetcher;
  static constexpr uint8_t AllRegions = (1u << NumMemRegions) - 1;
  /// Per PU, one bit per MemRegion it may access (setAddressSpace).
  uint8_t Visible[NumPuKinds] = {AllRegions, AllRegions};
  StatRegistry Stats;

  PuCounters Counts[NumPuKinds];

  // The counters only the CPU side (its uncore, the coherence directory,
  // the background queue) writes, bound to registry entries once at
  // construction so the per-access charging sites never hash a counter
  // name. The DRAM ones are conservation counters (see obs/Metrics.h).
  uint64_t *DramCpuDemand = nullptr;
  uint64_t *DramCpuWritebacks = nullptr;
  uint64_t *DramCpuPrefetchReads = nullptr;
  uint64_t *BgDrains = nullptr;
  uint64_t *BgRequests = nullptr;
  StatHistogram *BgDrainCycles = nullptr;
  uint64_t *MemCohRemote = nullptr;
  uint64_t *MemCohWritebacks = nullptr;
  uint64_t *MemPrefetchFills = nullptr;
};

} // namespace hetsim

#endif // HETSIM_MEMORY_MEMORYSYSTEM_H
