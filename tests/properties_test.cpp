//===- tests/properties_test.cpp - Property-based invariants --------------===//
///
/// \file
/// Parameterized property sweeps: invariants that must hold across whole
/// regions of the configuration space, not just single examples —
/// capacity bounds, inclusion/monotonicity properties, bandwidth floors,
/// conservation of instruction budgets, and cross-run determinism.
///
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "trace/KernelTraceGenerator.h"

#include <gtest/gtest.h>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// Cache properties over geometry.
//===----------------------------------------------------------------------===//

class CacheGeometryProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, unsigned>> {};

TEST_P(CacheGeometryProperty, StatsAreConsistentAndCapacityHolds) {
  auto [SizeBytes, Ways] = GetParam();
  CacheConfig Config;
  Config.SizeBytes = SizeBytes;
  Config.Ways = Ways;
  if (!Config.isValid())
    GTEST_SKIP() << "geometry not representable";
  Cache C(Config);

  XorShiftRng Rng(SizeBytes + Ways);
  for (unsigned I = 0; I != 20000; ++I)
    C.access(Rng.nextBelow(1 << 20) * CacheLineBytes, Rng.nextBool(0.3));

  const CacheStats &Stats = C.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses, Stats.Accesses);
  EXPECT_LE(C.residentLines(), SizeBytes / CacheLineBytes);
  EXPECT_GE(Stats.hitRate(), 0.0);
  EXPECT_LE(Stats.hitRate(), 1.0);
}

TEST_P(CacheGeometryProperty, RepeatedAccessAlwaysHits) {
  auto [SizeBytes, Ways] = GetParam();
  CacheConfig Config;
  Config.SizeBytes = SizeBytes;
  Config.Ways = Ways;
  if (!Config.isValid())
    GTEST_SKIP();
  Cache C(Config);
  C.access(0x40, false);
  EXPECT_TRUE(C.access(0x40, false).Hit); // Immediate re-access hits.
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryProperty,
    ::testing::Combine(::testing::Values(1024ull, 8192ull, 32768ull,
                                         262144ull),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(CacheProperty, MoreWaysNeverHurtLruHits) {
  // LRU is a stack algorithm per set: with the same number of sets,
  // doubling associativity (doubling capacity) can only add hits.
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::Convolution, 0);
  GenRequest Req;
  Req.Pu = PuKind::Cpu;
  Req.InstCount = 40000;
  TraceBuffer Trace = KernelTraceGenerator::forKernel(KernelId::Convolution)
                          .generateCompute(Req, Layout);

  uint64_t PreviousHits = 0;
  for (unsigned Ways : {1u, 2u, 4u, 8u}) {
    CacheConfig Config;
    Config.Ways = Ways;
    Config.SizeBytes = uint64_t(Ways) * 64 * CacheLineBytes; // 64 sets.
    Cache C(Config);
    for (const TraceRecord &R : Trace)
      if (isGlobalMemoryOp(R.Op))
        C.access(R.MemAddr, isStoreOp(R.Op));
    EXPECT_GE(C.stats().Hits, PreviousHits) << "ways=" << Ways;
    PreviousHits = C.stats().Hits;
  }
}

//===----------------------------------------------------------------------===//
// DRAM properties.
//===----------------------------------------------------------------------===//

class DramGeometryProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(DramGeometryProperty, DrainRespectsBandwidthFloor) {
  auto [Channels, Banks] = GetParam();
  DramConfig Config;
  Config.Channels = Channels;
  Config.BanksPerChannel = Banks;
  DramSystem Dram(Config);

  const unsigned Lines = 512;
  for (unsigned I = 0; I != Lines; ++I)
    Dram.enqueue(uint64_t(I) * CacheLineBytes, false);
  Cycle Finish = Dram.drainFrFcfs(0);

  // The per-channel bus limits throughput: finish >= lines-per-channel
  // times the bus occupancy.
  Cycle Floor = Cycle(Lines / Channels) * Config.BusCyclesPerLine;
  EXPECT_GE(Finish, Floor);
  EXPECT_EQ(Dram.stats().Reads, Lines);
}

INSTANTIATE_TEST_SUITE_P(Geometries, DramGeometryProperty,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u),
                                            ::testing::Values(2u, 8u)));

TEST(DramProperty, MoreChannelsNeverSlowerOnStreams) {
  Cycle Previous = ~Cycle(0);
  for (unsigned Channels : {1u, 2u, 4u, 8u}) {
    DramConfig Config;
    Config.Channels = Channels;
    DramSystem Dram(Config);
    for (unsigned I = 0; I != 1024; ++I)
      Dram.enqueue(uint64_t(I) * CacheLineBytes, false);
    Cycle Finish = Dram.drainFrFcfs(0);
    EXPECT_LE(Finish, Previous) << "channels=" << Channels;
    Previous = Finish;
  }
}

//===----------------------------------------------------------------------===//
// Ring properties.
//===----------------------------------------------------------------------===//

class RingSizeProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RingSizeProperty, HopCountBounds) {
  RingConfig Config;
  Config.NumStops = GetParam();
  RingBus Ring(Config);
  for (unsigned A = 0; A != Config.NumStops; ++A) {
    for (unsigned B = 0; B != Config.NumStops; ++B) {
      unsigned Hops = Ring.hopCount(A, B);
      EXPECT_LE(Hops, Config.NumStops / 2);
      EXPECT_EQ(Hops == 0, A == B);
      EXPECT_EQ(Hops, Ring.hopCount(B, A));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSizeProperty,
                         ::testing::Values(2u, 3u, 5u, 7u, 8u, 16u));

//===----------------------------------------------------------------------===//
// Core-model properties.
//===----------------------------------------------------------------------===//

TEST(CpuProperty, IpcNeverExceedsIssueWidth) {
  MemHierConfig HierConfig;
  MemorySystem Mem(HierConfig);
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  for (unsigned Width : {1u, 2u, 4u}) {
    CpuConfig Config;
    Config.FetchWidth = Width;
    Config.IssueWidth = Width;
    Config.RetireWidth = Width;
    CpuCore Core(Config, Mem);
    TraceBuffer Trace;
    for (unsigned I = 0; I != 5000; ++I)
      Trace.emitAlu(Opcode::IntAlu, 0x100 + I * 4, uint8_t(8 + I % 24), 0);
    SegmentResult R = Core.run(Trace.records().data(), Trace.size(), 0);
    EXPECT_LE(R.ipc(), double(Width) + 1e-9) << "width=" << Width;
  }
}

TEST(CpuProperty, CyclesMonotoneInMispredictPenalty) {
  MemHierConfig HierConfig;
  MemorySystem Mem(HierConfig);
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  TraceBuffer Trace;
  XorShiftRng Rng(11);
  for (unsigned I = 0; I != 4000; ++I) {
    Trace.emitAlu(Opcode::IntAlu, 0x100, uint8_t(8 + I % 8), 0);
    Trace.emitBranch(0x104, Rng.nextBool(0.5));
  }
  Cycle Previous = 0;
  for (Cycle Penalty : {0u, 5u, 15u, 40u}) {
    CpuConfig Config;
    Config.MispredictPenalty = Penalty;
    CpuCore Core(Config, Mem);
    SegmentResult R = Core.run(Trace.records().data(), Trace.size(), 0);
    EXPECT_GE(R.Cycles, Previous) << "penalty=" << Penalty;
    Previous = R.Cycles;
  }
}

TEST(GpuProperty, CyclesRespectIssueFloor) {
  MemHierConfig HierConfig;
  MemorySystem Mem(HierConfig);
  Mem.mapRange(PuKind::Gpu, region::GpuPrivateBase, 1 << 20);
  for (unsigned Warps : {1u, 4u, 16u, 32u}) {
    GpuConfig Config;
    Config.NumWarps = Warps;
    GpuCore Core(Config, Mem);
    TraceBuffer Trace;
    for (unsigned I = 0; I != 3000; ++I)
      Trace.emitAlu(Opcode::IntAlu, 0x100, uint8_t(8 + I % 24), 0);
    SegmentResult R = Core.run(Trace.records().data(), Trace.size(), 0);
    EXPECT_GE(R.Cycles, Trace.size() / Config.IssueWidth);
  }
}

TEST(GpuProperty, MoreWarpsNeverSlowerOnIndependentWork) {
  TraceBuffer Trace;
  for (unsigned I = 0; I != 4000; ++I) {
    Trace.emitSimdLoad(0x100, 8, region::GpuPrivateBase + (I % 2048) * 64, 4,
                       8, 4);
    Trace.emitAlu(Opcode::FpAlu, 0x104, 9, 8);
    Trace.emitBranch(0x108, true);
  }
  Cycle Previous = ~Cycle(0);
  for (unsigned Warps : {1u, 2u, 4u, 8u, 16u}) {
    MemHierConfig HierConfig;
    MemorySystem Mem(HierConfig);
    Mem.mapRange(PuKind::Gpu, region::GpuPrivateBase, 1 << 20);
    GpuConfig Config;
    Config.NumWarps = Warps;
    GpuCore Core(Config, Mem);
    SegmentResult R = Core.run(Trace.records().data(), Trace.size(), 0);
    EXPECT_LE(R.Cycles, Previous + Previous / 10) << "warps=" << Warps;
    Previous = R.Cycles;
  }
}

//===----------------------------------------------------------------------===//
// Lowering conservation properties across the whole (kernel x system)
// matrix.
//===----------------------------------------------------------------------===//

class LoweringMatrixProperty
    : public ::testing::TestWithParam<std::tuple<KernelId, CaseStudy>> {};

TEST_P(LoweringMatrixProperty, InstructionBudgetsConserved) {
  auto [Kernel, Study] = GetParam();
  if (Kernel == KernelId::MatrixMul || Kernel == KernelId::Dct)
    GTEST_SKIP() << "large kernels exercised in benches";
  SystemConfig Config = SystemConfig::forCaseStudy(Study);
  LoweredProgram Program = lowerKernel(Kernel, Config);
  const KernelCharacteristics &K = kernelCharacteristics(Kernel);
  uint64_t Cpu = 0, Gpu = 0, Serial = 0;
  for (const ExecStep &Step : Program.Steps) {
    if (Step.Kind == ExecKind::ParallelCompute) {
      Cpu += Step.CpuTrace.size();
      Gpu += Step.GpuTrace.size();
    } else if (Step.Kind == ExecKind::SerialCompute) {
      Serial += Step.CpuTrace.size();
    }
  }
  EXPECT_EQ(Cpu, K.CpuInsts);
  EXPECT_EQ(Gpu, K.GpuInsts);
  EXPECT_EQ(Serial, K.SerialInsts);
}

TEST_P(LoweringMatrixProperty, RunsAreDeterministic) {
  auto [Kernel, Study] = GetParam();
  if (Kernel == KernelId::MatrixMul || Kernel == KernelId::Dct)
    GTEST_SKIP() << "large kernels exercised in benches";
  SystemConfig Config = SystemConfig::forCaseStudy(Study);
  HeteroSimulator Sim(Config);
  RunResult A = Sim.run(Kernel);
  RunResult B = Sim.run(Kernel);
  EXPECT_DOUBLE_EQ(A.Time.totalNs(), B.Time.totalNs());
  EXPECT_EQ(A.TransferredBytes, B.TransferredBytes);
  EXPECT_EQ(A.PageFaults, B.PageFaults);
}

TEST_P(LoweringMatrixProperty, BreakdownComponentsNonNegative) {
  auto [Kernel, Study] = GetParam();
  if (Kernel == KernelId::MatrixMul || Kernel == KernelId::Dct)
    GTEST_SKIP();
  SystemConfig Config = SystemConfig::forCaseStudy(Study);
  HeteroSimulator Sim(Config);
  RunResult R = Sim.run(Kernel);
  EXPECT_GE(R.Time.SequentialNs, 0.0);
  EXPECT_GE(R.Time.ParallelNs, 0.0);
  EXPECT_GE(R.Time.CommunicationNs, -1e-9);
  EXPECT_GT(R.Time.totalNs(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LoweringMatrixProperty,
    ::testing::Combine(::testing::ValuesIn(allKernels()),
                       ::testing::Values(CaseStudy::CpuGpu, CaseStudy::Lrb,
                                         CaseStudy::Gmac, CaseStudy::Fusion,
                                         CaseStudy::IdealHetero)));

//===----------------------------------------------------------------------===//
// Memory-system latency ordering.
//===----------------------------------------------------------------------===//

TEST(MemoryProperty, LatencyRespectsHierarchyOrdering) {
  MemHierConfig Config;
  MemorySystem Mem(Config);
  Mem.mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);

  // Cold (DRAM) access.
  Cycle Dram =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 0).Latency;
  // Warm L1.
  Cycle L1 =
      Mem.access(PuKind::Cpu, region::CpuPrivateBase, 4, false, 100000)
          .Latency;
  EXPECT_LT(L1, Dram);
  EXPECT_EQ(L1, Config.CpuL1.HitLatency);
}

TEST(MemoryProperty, AccessLatencyAlwaysPositive) {
  MemHierConfig Config;
  MemorySystem Mem(Config);
  // Both PUs map the range first: an unmapped access is fatal.
  Mem.mapRange(PuKind::Cpu, region::SharedBase, 1 << 20);
  Mem.mapRange(PuKind::Gpu, region::SharedBase, 1 << 20);
  XorShiftRng Rng(3);
  for (unsigned I = 0; I != 2000; ++I) {
    PuKind Pu = Rng.nextBool(0.5) ? PuKind::Cpu : PuKind::Gpu;
    Addr A = region::SharedBase + Rng.nextBelow(1 << 20);
    MemAccessResult R = Mem.access(Pu, A, 4, Rng.nextBool(0.3), I * 10);
    EXPECT_GT(R.Latency, 0u);
  }
}
