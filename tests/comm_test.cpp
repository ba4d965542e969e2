//===- tests/comm_test.cpp - comm/ unit tests -----------------------------===//

#include "comm/CommParams.h"
#include "comm/DmaEngine.h"
#include "comm/MemControllerLink.h"
#include "comm/PciAperture.h"
#include "comm/PciExpressLink.h"
#include "common/Stats.h"
#include "common/Units.h"
#include "core/HeteroSimulator.h"
#include "core/SystemConfig.h"
#include "dram/Dram.h"

#include <gtest/gtest.h>

#include <memory>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// CommParams (Table IV).
//===----------------------------------------------------------------------===//

TEST(CommParams, TableFourDefaults) {
  CommParams P;
  EXPECT_EQ(P.ApiPciBase, 33250u);
  EXPECT_EQ(P.ApiAcquire, 1000u);
  EXPECT_EQ(P.ApiTransfer, 7000u);
  EXPECT_EQ(P.LibPageFault, 42000u);
  EXPECT_DOUBLE_EQ(P.PciBytesPerSec, 16e9);
}

TEST(CommParams, PciCopyFormula) {
  CommParams P;
  // api-pci = 33250 + bytes at 16GB/s in 3.5GHz cycles.
  EXPECT_EQ(P.pciCopyCycles(0), 33250u);
  Cycle C = P.pciCopyCycles(1 << 20);
  Cycle Expected = 33250 + transferCycles(PuKind::Cpu, 1 << 20, 16e9);
  EXPECT_EQ(C, Expected);
  // 1MB at 16GB/s = 65.5us = ~229k cycles.
  EXPECT_NEAR(double(C - 33250), 229376.0, 2.0);
}

TEST(CommParams, OverridesFromConfig) {
  // One comm.* override changes its field; every other keeps Table IV.
  ConfigStore Config;
  Config.setInt("comm.api_pci_base", 1000);
  SystemConfig System;
  System.applyOverrides(Config);
  const CommParams &P = System.Comm;
  const CommParams Defaults;
  EXPECT_EQ(P.ApiPciBase, 1000u);
  EXPECT_EQ(P.PciBytesPerSec, Defaults.PciBytesPerSec);
  EXPECT_EQ(P.ApiAcquire, Defaults.ApiAcquire);
  EXPECT_EQ(P.ApiTransfer, Defaults.ApiTransfer);
  EXPECT_EQ(P.LibPageFault, Defaults.LibPageFault);
  EXPECT_EQ(P.AsyncIssueOverhead, Defaults.AsyncIssueOverhead);
  EXPECT_EQ(P.PinnedHostMemory, Defaults.PinnedHostMemory);
  EXPECT_EQ(P.PageableRateFactor, Defaults.PageableRateFactor);
  EXPECT_EQ(P.PageableStagingOverhead, Defaults.PageableStagingOverhead);
}

TEST(CommParams, PageableHostMemoryCostsMore) {
  CommParams Pinned;
  CommParams Pageable;
  Pageable.PinnedHostMemory = false;
  uint64_t Bytes = 1 << 20;
  Cycle PinnedCost = Pinned.pciCopyCycles(Bytes);
  Cycle PageableCost = Pageable.pciCopyCycles(Bytes);
  EXPECT_GT(PageableCost, PinnedCost);
  // The bandwidth term scales by the rate factor plus staging.
  Cycle Expected = Pinned.ApiPciBase + Pageable.PageableStagingOverhead +
                   transferCycles(PuKind::Cpu, Bytes, 16e9 * 0.55);
  EXPECT_EQ(PageableCost, Expected);
}

TEST(CommParams, PageableConfigKeys) {
  ConfigStore Config;
  Config.setBool("comm.pinned_host", false);
  Config.set("comm.pageable_rate_factor", "0.25");
  SystemConfig System;
  System.applyOverrides(Config);
  EXPECT_FALSE(System.Comm.PinnedHostMemory);
  EXPECT_DOUBLE_EQ(System.Comm.PageableRateFactor, 0.25);
}

// The key table rejects a rate this small (ConfigDeathTest), but a config
// built in code bypasses it. Such a rate leaves no cycle count for a copy:
// the run aborts instead of making the copy free.
TEST(CommParamsDeathTest, TinyEffectiveRateFailsLoudly) {
  SystemConfig System = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  System.Comm.PinnedHostMemory = false;
  System.Comm.PageableRateFactor = 1e-300;
  EXPECT_DEATH(HeteroSimulator(System).run(KernelId::Reduction),
               "transfer cycles overflow a cycle count");
}

//===----------------------------------------------------------------------===//
// PCI-E link.
//===----------------------------------------------------------------------===//

TEST(PciExpress, SynchronousCost) {
  PciExpressLink Link{CommParams()};
  TransferTiming T = Link.transfer(320512, TransferDir::HostToDevice, 100);
  EXPECT_FALSE(T.Asynchronous);
  EXPECT_EQ(T.CpuBusyCycles, CommParams().pciCopyCycles(320512));
  EXPECT_EQ(T.CompleteCycle, 100 + T.CpuBusyCycles);
  EXPECT_EQ(Link.bytesMoved(), 320512u);
  EXPECT_EQ(Link.transferCount(), 1u);
  EXPECT_EQ(Link.waitAll(1000), 0u); // Synchronous: nothing pending.
}

//===----------------------------------------------------------------------===//
// PCI aperture (LRB).
//===----------------------------------------------------------------------===//

TEST(PciAperture, OneWindowOneApiTr) {
  PciAperture Aperture{CommParams()};
  TransferTiming T = Aperture.transfer(320512, TransferDir::HostToDevice, 0);
  EXPECT_EQ(T.CpuBusyCycles, CommParams().ApiTransfer);
}

TEST(PciAperture, LargeTransfersPayPerWindow) {
  PciAperture Aperture(CommParams(), /*WindowBytes=*/64 * 1024);
  TransferTiming T =
      Aperture.transfer(320512, TransferDir::HostToDevice, 0);
  EXPECT_EQ(T.CpuBusyCycles, ceilDiv(320512, 64 * 1024) * 7000u);
}

TEST(PciAperture, MuchCheaperThanPciMemcpy) {
  CommParams P;
  PciAperture Aperture{P};
  PciExpressLink Link{P};
  uint64_t Bytes = 524288;
  EXPECT_LT(Aperture.transfer(Bytes, TransferDir::HostToDevice, 0)
                .CpuBusyCycles,
            Link.transfer(Bytes, TransferDir::HostToDevice, 0)
                    .CpuBusyCycles /
                10);
}

//===----------------------------------------------------------------------===//
// DMA engine (GMAC async copies).
//===----------------------------------------------------------------------===//

TEST(DmaEngine, IssueIsCheapCompletionIsLater) {
  CommParams P;
  DmaEngine Dma(P, std::make_unique<PciExpressLink>(P));
  TransferTiming T = Dma.transfer(1 << 20, TransferDir::HostToDevice, 0);
  EXPECT_TRUE(T.Asynchronous);
  EXPECT_EQ(T.CpuBusyCycles, P.AsyncIssueOverhead);
  EXPECT_GT(T.CompleteCycle, P.pciCopyCycles(1 << 20));
}

TEST(DmaEngine, WaitChargesOnlyUnhiddenTime) {
  CommParams P;
  DmaEngine Dma(P, std::make_unique<PciExpressLink>(P));
  TransferTiming T = Dma.transfer(1 << 20, TransferDir::HostToDevice, 0);
  // Waiting immediately pays nearly the whole copy.
  Cycle FullStall = Dma.waitAll(P.AsyncIssueOverhead);
  EXPECT_NEAR(double(FullStall),
              double(T.CompleteCycle - P.AsyncIssueOverhead), 1.0);
  // Waiting after the copy finished costs nothing.
  EXPECT_EQ(Dma.waitAll(T.CompleteCycle + 10), 0u);
}

TEST(DmaEngine, FullyHiddenCopyIsFree) {
  CommParams P;
  DmaEngine Dma(P, std::make_unique<PciExpressLink>(P));
  Dma.transfer(4096, TransferDir::HostToDevice, 0);
  Cycle Busy = Dma.busyUntil();
  EXPECT_GT(Busy, 0u);
  EXPECT_EQ(Dma.waitAll(Busy + 1000), 0u); // Compute outlasted the copy.
  EXPECT_GT(Dma.hiddenCycles(), 0u);
}

TEST(DmaEngine, BackToBackCopiesSerializeOnEngine) {
  CommParams P;
  DmaEngine Dma(P, std::make_unique<PciExpressLink>(P));
  TransferTiming A = Dma.transfer(1 << 20, TransferDir::HostToDevice, 0);
  TransferTiming B = Dma.transfer(1 << 20, TransferDir::HostToDevice, 10);
  EXPECT_GE(B.CompleteCycle, A.CompleteCycle + P.pciCopyCycles(1 << 20));
}

//===----------------------------------------------------------------------===//
// Memory-controller link (Fusion).
//===----------------------------------------------------------------------===//

TEST(MemControllerLink, GeneratesDramTraffic) {
  DramSystem Dram;
  MemControllerLink Link(Dram);
  Link.transfer(64 * 100, TransferDir::HostToDevice, 0);
  // One read + one write per line.
  EXPECT_EQ(Dram.stats().Reads, 100u);
  EXPECT_EQ(Dram.stats().Writes, 100u);
}

TEST(MemControllerLink, StreamingTransfersRowHit) {
  DramSystem Dram;
  MemControllerLink Link(Dram);
  Link.transfer(1 << 20, TransferDir::HostToDevice, 0);
  EXPECT_GT(Dram.stats().rowHitRate(), 0.8);
}

TEST(MemControllerLink, CheaperThanPciE) {
  // Large transfers: bandwidth-bound on both sides, and DRAM (41.6GB/s,
  // read+write per line) still beats PCI-E 2.0 (16GB/s + api-pci base).
  DramSystem Dram;
  MemControllerLink Link(Dram);
  PciExpressLink Pci{CommParams()};
  uint64_t Bytes = 320512;
  Cycle McCost =
      Link.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;
  Cycle PciCost =
      Pci.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;
  EXPECT_LT(McCost, PciCost);
}

TEST(MemControllerLink, MuchCheaperForSmallTransfers) {
  // Small transfers: PCI-E pays its 33250-cycle API cost; the on-chip
  // path is an order of magnitude cheaper (the Fusion advantage).
  DramSystem Dram;
  MemControllerLink Link(Dram);
  PciExpressLink Pci{CommParams()};
  uint64_t Bytes = 4096;
  Cycle McCost =
      Link.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;
  Cycle PciCost =
      Pci.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;
  EXPECT_LT(McCost * 10, PciCost);
}

TEST(MemControllerLink, ZeroBytesOnlyApiOverhead) {
  DramSystem Dram;
  MemControllerLink Link(Dram, /*ApiOverhead=*/500);
  TransferTiming T = Link.transfer(0, TransferDir::HostToDevice, 100);
  EXPECT_EQ(T.CpuBusyCycles, 500u);
}

TEST(MemControllerLink, StaleBacklogNotBilledToTransfer) {
  // Regression: background traffic (victim writebacks, prefetch fills)
  // left in the FR-FCFS queue by earlier cache activity must not inflate
  // the next transfer's cost. The link drains the backlog first, so the
  // transfer is billed the same as with a clean queue.
  uint64_t Bytes = 64 * 32;
  DramSystem CleanDram;
  MemControllerLink Clean(CleanDram);
  Cycle CleanCost =
      Clean.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;

  // The backlog is small enough to drain inside the 1000-cycle API
  // overhead, so only genuinely-stale-request billing (the old bug)
  // could make the costs differ; residual bank/bus state cannot.
  DramSystem StaleDram;
  StatRegistry Stats;
  MemControllerLink Stale(StaleDram, 1000, &Stats);
  for (unsigned I = 0; I != 32; ++I)
    StaleDram.enqueue(0x900000000ull + I * 64, /*IsWrite=*/true);
  Cycle StaleCost =
      Stale.transfer(Bytes, TransferDir::HostToDevice, 0).CpuBusyCycles;

  EXPECT_EQ(StaleCost, CleanCost);
  EXPECT_EQ(Stats.counter("dram.cpu.stale_drained"), 32u);
  EXPECT_EQ(StaleDram.queuedRequests(), 0u);
}

TEST(MemControllerLink, ChargesTransferRequestsForConservation) {
  DramSystem Dram;
  StatRegistry Stats;
  MemControllerLink Link(Dram, 1000, &Stats);
  Link.transfer(64 * 100, TransferDir::HostToDevice, 0);
  // One read + one write per line, all charged to the transfer category.
  EXPECT_EQ(Stats.counter("dram.cpu.transfer_reqs"), 200u);
  EXPECT_EQ(Dram.stats().Reads + Dram.stats().Writes,
            Stats.counter("dram.cpu.transfer_reqs"));
  // Zero-byte transfers charge nothing.
  Link.transfer(0, TransferDir::HostToDevice, 0);
  EXPECT_EQ(Stats.counter("dram.cpu.transfer_reqs"), 200u);
}
