//===- tests/extensions_test.cpp - Extension-module tests -----------------===//
///
/// \file
/// Tests for the modules that extend the paper's core evaluation: the
/// GMAC-style software coherence runtime, the L2 stream prefetcher, the
/// energy model, and the work-partitioning sweep.
///
//===----------------------------------------------------------------------===//

#include "cache/StreamPrefetcher.h"
#include "core/Experiments.h"
#include "energy/EnergyModel.h"
#include "memory/SoftwareCoherence.h"
#include "trace/KernelTraceGenerator.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// Software coherence (GMAC runtime protocol).
//===----------------------------------------------------------------------===//

TEST(SwCoherence, FirstAccAccessMovesHostData) {
  SoftwareCoherence Runtime;
  Runtime.registerObject("a", 1000);
  EXPECT_EQ(Runtime.onAccAccess("a", false), 1000u);
  EXPECT_EQ(Runtime.state("a"), SwCohState::BothValid);
  // Already coherent: no second copy.
  EXPECT_EQ(Runtime.onAccAccess("a", false), 0u);
  EXPECT_EQ(Runtime.stats().HostToDevTransfers, 1u);
  EXPECT_EQ(Runtime.stats().AvoidedTransfers, 1u);
}

TEST(SwCoherence, AccWriteInvalidatesHostCopy) {
  SoftwareCoherence Runtime;
  Runtime.registerObject("c", 500, SwCohState::AccValid);
  EXPECT_EQ(Runtime.onAccAccess("c", true), 0u); // Output: nothing to move.
  EXPECT_EQ(Runtime.state("c"), SwCohState::AccValid);
  // The host reading it afterwards pulls the data back.
  EXPECT_EQ(Runtime.onHostAccess("c", false), 500u);
  EXPECT_EQ(Runtime.state("c"), SwCohState::BothValid);
}

TEST(SwCoherence, HostWriteForcesNextAccCopy) {
  SoftwareCoherence Runtime;
  Runtime.registerObject("centroids", 5120, SwCohState::AccValid);
  Runtime.onHostAccess("centroids", /*IsWrite=*/true); // Host updates.
  EXPECT_EQ(Runtime.state("centroids"), SwCohState::HostValid);
  EXPECT_EQ(Runtime.onAccAccess("centroids", true), 5120u);
}

TEST(SwCoherence, PingPongCountsEveryMove) {
  SoftwareCoherence Runtime;
  Runtime.registerObject("x", 64);
  for (int I = 0; I != 3; ++I) {
    Runtime.onAccAccess("x", true);
    Runtime.onHostAccess("x", true);
  }
  EXPECT_EQ(Runtime.stats().HostToDevTransfers, 3u);
  EXPECT_EQ(Runtime.stats().DevToHostTransfers, 3u);
  EXPECT_EQ(Runtime.stats().BytesMoved, 6u * 64);
}

TEST(SwCoherence, ReadsKeepBothValid) {
  SoftwareCoherence Runtime;
  Runtime.registerObject("t", 128);
  Runtime.onAccAccess("t", false);
  Runtime.onHostAccess("t", false);
  Runtime.onAccAccess("t", false);
  EXPECT_EQ(Runtime.stats().HostToDevTransfers, 1u); // Only the first.
}

TEST(SwCoherenceDeath, UnknownObjectAborts) {
  SoftwareCoherence Runtime;
  EXPECT_DEATH(Runtime.onAccAccess("ghost", false), "unknown object");
}

TEST(SwCoherence, DrivesAdsmLoweringTransfers) {
  // The ADSM lowering consults the runtime: k-means' "points" move once,
  // centroids ping-pong every round.
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  LoweredProgram Program = lowerKernel(KernelId::KMeans, Config);
  EXPECT_EQ(Program.countSteps(ExecKind::Transfer), 6u);
  // Initial sync moves points (+ nothing for the output object).
  for (const ExecStep &Step : Program.Steps) {
    if (Step.Kind == ExecKind::Transfer) {
      EXPECT_EQ(Step.Bytes, 136192u);
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Stream prefetcher.
//===----------------------------------------------------------------------===//

TEST(Prefetcher, LearnsUnitStride) {
  StreamPrefetcher Prefetcher;
  std::vector<Addr> Got;
  for (Addr Line = 0; Line != 16; ++Line)
    Got = Prefetcher.onAccess(0x10000 + Line * CacheLineBytes);
  ASSERT_EQ(Got.size(), 2u); // Default degree.
  EXPECT_EQ(Got[0], 0x10000 + 16 * CacheLineBytes);
  EXPECT_EQ(Got[1], 0x10000 + 17 * CacheLineBytes);
}

TEST(Prefetcher, SilentWhileTraining) {
  StreamPrefetcher Prefetcher;
  EXPECT_TRUE(Prefetcher.onAccess(0x1000).empty());  // Allocation.
  EXPECT_TRUE(Prefetcher.onAccess(0x1040).empty());  // First stride.
}

TEST(Prefetcher, LearnsNegativeStride) {
  StreamPrefetcher Prefetcher;
  std::vector<Addr> Got;
  for (int I = 40; I >= 20; --I)
    Got = Prefetcher.onAccess(Addr(I) * CacheLineBytes);
  ASSERT_FALSE(Got.empty());
  EXPECT_EQ(Got[0], Addr(19) * CacheLineBytes);
}

TEST(Prefetcher, TracksMultipleStreams) {
  StreamPrefetcher Prefetcher;
  std::vector<Addr> A, B;
  for (unsigned I = 0; I != 8; ++I) {
    A = Prefetcher.onAccess(0x100000 + I * CacheLineBytes);
    B = Prefetcher.onAccess(0x900000 + I * CacheLineBytes);
  }
  EXPECT_FALSE(A.empty());
  EXPECT_FALSE(B.empty());
  EXPECT_EQ(Prefetcher.stats().StreamAllocations, 2u);
}

TEST(Prefetcher, StrideChangeRetrains) {
  StreamPrefetcher Prefetcher;
  for (unsigned I = 0; I != 8; ++I)
    Prefetcher.onAccess(0x10000 + I * CacheLineBytes);
  // Switch the same region to stride 2: first irregular access must not
  // prefetch.
  std::vector<Addr> Got = Prefetcher.onAccess(0x10000 + 20 * CacheLineBytes);
  EXPECT_TRUE(Got.empty());
}

TEST(Prefetcher, ReducesDramTrafficLatencyOnStreams) {
  // End to end: a streaming CPU workload on the memory system with and
  // without L2 prefetching; demand misses at the L2 must drop.
  auto RunStream = [](bool Enable) {
    MemHierConfig Config;
    Config.EnableL2Prefetch = Enable;
    MemorySystem Mem(Config);
    Mem.mapRange(PuKind::Cpu, 0x10000000, 4 << 20);
    uint64_t LatencySum = 0;
    for (Addr Offset = 0; Offset < (2 << 20); Offset += CacheLineBytes)
      LatencySum +=
          Mem.access(PuKind::Cpu, 0x10000000 + Offset, 4, false, Offset)
              .Latency;
    return LatencySum;
  };
  uint64_t Without = RunStream(false);
  uint64_t With = RunStream(true);
  EXPECT_LT(With, Without);
}

//===----------------------------------------------------------------------===//
// Energy model.
//===----------------------------------------------------------------------===//

TEST(Energy, RunEnergyIsPositiveAndDecomposes) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  HeteroSimulator Simulator(Config);
  RunResult Result = Simulator.run(KernelId::Reduction);
  EnergyReport Report = computeEnergy(
      EnergyParams(), Simulator.collectMetrics(Result), Result, true);
  EXPECT_GT(Report.CoreNj, 0.0);
  EXPECT_GT(Report.CacheNj, 0.0);
  EXPECT_GT(Report.DramNj, 0.0);
  EXPECT_GT(Report.CommNj, 0.0);
  EXPECT_NEAR(Report.totalNj(), Report.CoreNj + Report.CacheNj +
                                    Report.DramNj + Report.NetworkNj +
                                    Report.CommNj,
              1e-9);
}

TEST(Energy, IdealSystemSpendsNoCommEnergyOnTransfers) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  HeteroSimulator Simulator(Config);
  RunResult Result = Simulator.run(KernelId::Reduction);
  EnergyReport Report = computeEnergy(
      EnergyParams(), Simulator.collectMetrics(Result), Result, false);
  // No transferred bytes, no faults; comm energy is TLB walks only.
  EXPECT_LT(Report.CommNj, Report.CoreNj / 100.0);
}

TEST(Energy, PciTransfersCostMoreThanOnChip) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  HeteroSimulator Simulator(Config);
  RunResult Result = Simulator.run(KernelId::Reduction);
  MetricsSnapshot Metrics = Simulator.collectMetrics(Result);
  EnergyReport Pci = computeEnergy(EnergyParams(), Metrics, Result, true);
  EnergyReport OnChip = computeEnergy(EnergyParams(), Metrics, Result, false);
  EXPECT_GT(Pci.CommNj, OnChip.CommNj);
}

namespace {
/// The energy model's formula read straight from a live memory system
/// (its form before it took a metrics snapshot): the oracle that the
/// snapshot carries every counter the model needs, unrounded.
EnergyReport liveEnergy(const EnergyParams &Params, MemorySystem &Mem,
                        const RunResult &Result, bool PciFabric) {
  EnergyReport Report;
  Report.CoreNj += double(Result.CpuTotal.Insts) * Params.CpuInstPj / 1e3;
  Report.CoreNj += double(Result.GpuTotal.Insts) * Params.GpuInstPj / 1e3;
  uint64_t L1Accesses =
      Mem.cpuL1().stats().Accesses + Mem.gpuL1().stats().Accesses;
  Report.CacheNj += double(L1Accesses) * Params.L1AccessPj / 1e3;
  Report.CacheNj +=
      double(Mem.cpuL2().stats().Accesses) * Params.L2AccessPj / 1e3;
  Report.CacheNj += double(Mem.l3().stats().Accesses) * Params.L3AccessPj / 1e3;
  uint64_t SmemAccesses =
      Mem.scratchpad().readCount() + Mem.scratchpad().writeCount();
  Report.CacheNj += double(SmemAccesses) * Params.ScratchpadPj / 1e3;
  uint64_t DramLines =
      Mem.cpuDram().stats().Reads + Mem.cpuDram().stats().Writes;
  if (&Mem.gpuDram() != &Mem.cpuDram())
    DramLines += Mem.gpuDram().stats().Reads + Mem.gpuDram().stats().Writes;
  Report.DramNj += double(DramLines) * Params.DramLinePj / 1e3;
  Report.NetworkNj +=
      double(Mem.noc().stats().TotalHops) * Params.RingHopPj / 1e3;
  double PerByte = PciFabric ? Params.PciPerBytePj : Params.MemCtrlPerBytePj;
  Report.CommNj += double(Result.TransferredBytes) * PerByte / 1e3;
  Report.CommNj += double(Result.PageFaults) * Params.PageFaultNj;
  uint64_t TlbMisses = Mem.tlb(PuKind::Cpu).stats().Misses +
                       Mem.tlb(PuKind::Gpu).stats().Misses;
  Report.CommNj += double(TlbMisses) * Params.TlbMissPj / 1e3;
  return Report;
}
} // namespace

TEST(Energy, SnapshotReportMatchesLiveCounters) {
  for (CaseStudy Study : allCaseStudies())
    for (KernelId Kernel : allKernels()) {
      SystemConfig Config = SystemConfig::forCaseStudy(Study);
      HeteroSimulator Simulator(Config);
      RunResult Result = Simulator.run(Kernel);
      MetricsSnapshot Metrics = Simulator.collectMetrics(Result);
      for (bool Pci : {false, true}) {
        EnergyReport Live =
            liveEnergy(EnergyParams(), Simulator.memory(), Result, Pci);
        EnergyReport Snap = computeEnergy(EnergyParams(), Metrics, Result, Pci);
        std::string Where = Config.Name + " / " + kernelName(Kernel);
        EXPECT_EQ(Snap.CoreNj, Live.CoreNj) << Where;
        EXPECT_EQ(Snap.CacheNj, Live.CacheNj) << Where;
        EXPECT_EQ(Snap.DramNj, Live.DramNj) << Where;
        EXPECT_EQ(Snap.NetworkNj, Live.NetworkNj) << Where;
        EXPECT_EQ(Snap.CommNj, Live.CommNj) << Where;
      }
    }
}

TEST(Energy, SummaryMentionsTotal) {
  EnergyReport Report;
  Report.CoreNj = 500;
  Report.DramNj = 500;
  std::string Summary = Report.renderSummary();
  EXPECT_NE(Summary.find("total 1.0uJ"), std::string::npos);
  EXPECT_NE(Summary.find("core 50%"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Work partitioning.
//===----------------------------------------------------------------------===//

TEST(Partition, EvenSplitMatchesBaseline) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  HeteroSimulator Baseline(Config);
  RunResult Base = Baseline.run(KernelId::MergeSort);

  SystemConfig Half = Config;
  Half.CpuWorkFraction = 0.5;
  HeteroSimulator Sim(Half);
  RunResult R = Sim.run(KernelId::MergeSort);
  EXPECT_DOUBLE_EQ(R.Time.totalNs(), Base.Time.totalNs());
}

TEST(Partition, ExtremesShiftWork) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  Config.CpuWorkFraction = 1.0; // All work on the CPU.
  HeteroSimulator AllCpu(Config);
  RunResult R = AllCpu.run(KernelId::Reduction);
  EXPECT_EQ(R.GpuTotal.Insts, 0u);
  EXPECT_EQ(R.CpuTotal.Insts, 2u * 70006 + 99996);

  Config.CpuWorkFraction = 0.0;
  HeteroSimulator AllGpu(Config);
  RunResult R2 = AllGpu.run(KernelId::Reduction);
  EXPECT_EQ(R2.GpuTotal.Insts, 2u * 70001);
  EXPECT_EQ(R2.CpuTotal.Insts, 99996u); // Serial part stays on the CPU.
}

TEST(Partition, SweepCoversRangeAndFindsMinimum) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  std::vector<std::vector<PartitionPoint>> Curves = sweepPartitions(
      Config, {{KernelId::MergeSort, 4}, {KernelId::Reduction, 2}});
  ASSERT_EQ(Curves.size(), 2u);
  const std::vector<PartitionPoint> &Points = Curves[0];
  ASSERT_EQ(Points.size(), 5u);
  ASSERT_EQ(Curves[1].size(), 3u);
  EXPECT_DOUBLE_EQ(Points.front().CpuFraction, 0.0);
  EXPECT_DOUBLE_EQ(Points[1].CpuFraction, 0.25);
  EXPECT_DOUBLE_EQ(Points.back().CpuFraction, 1.0);
  EXPECT_DOUBLE_EQ(Curves[1][1].CpuFraction, 0.5);

  // Splitting the work beats handing all of it to either PU.
  auto Best = std::min_element(
      Points.begin(), Points.end(),
      [](const PartitionPoint &A, const PartitionPoint &B) {
        return A.TotalNs < B.TotalNs;
      });
  EXPECT_GT(Best->CpuFraction, 0.0);
  EXPECT_LT(Best->CpuFraction, 1.0);
}

TEST(Partition, OverrideKeyApplies) {
  ConfigStore Overrides;
  Overrides.set("sys.cpu_work_fraction", "0.25");
  SystemConfig Config =
      SystemConfig::forCaseStudy(CaseStudy::IdealHetero, Overrides);
  EXPECT_DOUBLE_EQ(Config.CpuWorkFraction, 0.25);
}

// An out-of-range split is bad input, rejected rather than clamped.
TEST(PartitionDeathTest, OverrideOutOfRangeRejected) {
  for (double Fraction : {1.5, -0.25}) {
    ConfigStore Overrides;
    Overrides.set("sys.cpu_work_fraction", std::to_string(Fraction));
    EXPECT_EXIT(SystemConfig::forCaseStudy(CaseStudy::IdealHetero, Overrides),
                ::testing::ExitedWithCode(2),
                "error: config key 'sys.cpu_work_fraction' has value "
                "'.*', which is not a valid fraction in \\[0, 1\\]")
        << Fraction;
  }
}

//===----------------------------------------------------------------------===//
// Interleaved-contention mode.
//===----------------------------------------------------------------------===//

TEST(Interleaved, MatchesDefaultModeClosely) {
  // The interleaving changes uncore access order, not the workload; totals
  // must agree within a few percent.
  ConfigStore On;
  On.setBool("sys.interleaved_contention", true);
  HeteroSimulator Default(SystemConfig::forCaseStudy(CaseStudy::IdealHetero));
  HeteroSimulator Inter(
      SystemConfig::forCaseStudy(CaseStudy::IdealHetero, On));
  RunResult A = Default.run(KernelId::MergeSort);
  RunResult B = Inter.run(KernelId::MergeSort);
  EXPECT_NEAR(B.Time.totalNs() / A.Time.totalNs(), 1.0, 0.08);
  EXPECT_EQ(A.CpuTotal.Insts, B.CpuTotal.Insts);
  EXPECT_EQ(A.GpuTotal.Insts, B.GpuTotal.Insts);
}

TEST(Interleaved, Deterministic) {
  ConfigStore On;
  On.setBool("sys.interleaved_contention", true);
  HeteroSimulator Sim(SystemConfig::forCaseStudy(CaseStudy::Fusion, On));
  RunResult A = Sim.run(KernelId::Reduction);
  RunResult B = Sim.run(KernelId::Reduction);
  EXPECT_DOUBLE_EQ(A.Time.totalNs(), B.Time.totalNs());
}

TEST(Interleaved, SliceSizeDoesNotChangeWorkDone) {
  ConfigStore On;
  On.setBool("sys.interleaved_contention", true);
  SystemConfig Config =
      SystemConfig::forCaseStudy(CaseStudy::IdealHetero, On);
  Config.ContentionSliceRecords = 512;
  HeteroSimulator Small(Config);
  Config.ContentionSliceRecords = 16384;
  HeteroSimulator Large(Config);
  RunResult A = Small.run(KernelId::MergeSort);
  RunResult B = Large.run(KernelId::MergeSort);
  EXPECT_EQ(A.CpuTotal.MemAccesses, B.CpuTotal.MemAccesses);
  EXPECT_EQ(A.GpuTotal.MemAccesses, B.GpuTotal.MemAccesses);
}

//===----------------------------------------------------------------------===//
// Config-file loading.
//===----------------------------------------------------------------------===//

TEST(ConfigFile, LoadsAssignments) {
  std::string Path = "/tmp/hetsim_config_test.cfg";
  std::FILE *File = std::fopen(Path.c_str(), "w");
  ASSERT_NE(File, nullptr);
  std::fputs("# comment\ncomm.lib_pf = 777\nmem.gpu_page_bytes = 8192\n",
             File);
  std::fclose(File);

  ConfigStore Config;
  ASSERT_TRUE(Config.loadFile(Path));
  EXPECT_EQ(Config.getUInt("comm.lib_pf", 0), 777u);
  EXPECT_EQ(Config.getUInt("mem.gpu_page_bytes", 0), 8192u);
  std::remove(Path.c_str());
}

// A line that is not a comment and not an assignment is a typo: the
// load names the file and the line and exits 2 instead of dropping it.
TEST(ConfigFileDeathTest, LineWithoutAssignmentIsRejected) {
  std::string Path = "/tmp/hetsim_config_bad_line.cfg";
  std::FILE *File = std::fopen(Path.c_str(), "w");
  ASSERT_NE(File, nullptr);
  std::fputs("# comment\ncomm.lib_pf = 777\nmem.noc mesh\n", File);
  std::fclose(File);

  ConfigStore Config;
  EXPECT_EXIT(Config.loadFile(Path), ::testing::ExitedWithCode(2),
              "error: /tmp/hetsim_config_bad_line[.]cfg:3: 'mem[.]noc mesh' "
              "is not a key=value assignment");
  std::remove(Path.c_str());
}

TEST(ConfigFile, MissingFileFails) {
  ConfigStore Config;
  EXPECT_FALSE(Config.loadFile("/tmp/definitely_missing_hetsim.cfg"));
}
