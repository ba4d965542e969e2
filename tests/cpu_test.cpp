//===- tests/cpu_test.cpp - cpu/ unit tests -------------------------------===//

#include "common/Random.h"
#include "cpu/CpuCore.h"
#include "memory/AddressSpaceModel.h"
#include "memory/MemorySystem.h"

#include <gtest/gtest.h>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// gshare predictor.
//===----------------------------------------------------------------------===//

TEST(Gshare, LearnsAlwaysTaken) {
  GsharePredictor P(10);
  for (int I = 0; I != 100; ++I)
    P.update(0x400, true);
  EXPECT_GT(P.stats().accuracy(), 0.95);
  // update() reports whether the prediction was right: taken is.
  EXPECT_TRUE(P.update(0x400, true));
}

TEST(Gshare, LearnsAlternatingViaHistory) {
  // With global history, a strict T/NT alternation becomes predictable
  // once the counters warm up.
  GsharePredictor P(12);
  bool Taken = false;
  for (int I = 0; I != 2000; ++I) {
    P.update(0x400, Taken);
    Taken = !Taken;
  }
  // Count mispredictions in the steady-state tail.
  uint64_t Before = P.stats().Mispredictions;
  for (int I = 0; I != 200; ++I) {
    P.update(0x400, Taken);
    Taken = !Taken;
  }
  EXPECT_LT(P.stats().Mispredictions - Before, 20u);
}

TEST(Gshare, RandomBranchesMispredictOften) {
  GsharePredictor P(12);
  XorShiftRng Rng(3);
  uint64_t Wrong = 0;
  const int N = 4000;
  for (int I = 0; I != N; ++I)
    if (!P.update(0x400 + (I % 7) * 4, Rng.nextBool(0.5)))
      ++Wrong;
  // Should be near 50%; definitely above 30%.
  EXPECT_GT(double(Wrong) / N, 0.3);
}

TEST(Gshare, ResetClearsState) {
  GsharePredictor P(10);
  for (int I = 0; I != 50; ++I)
    P.update(0x100, false);
  // Every run builds a fresh machine, and a new predictor starts over.
  P = GsharePredictor(10);
  EXPECT_EQ(P.stats().Predictions, 0u);
  EXPECT_TRUE(P.update(0x100, true)); // Back to weakly taken.
}

//===----------------------------------------------------------------------===//
// Out-of-order core timing.
//===----------------------------------------------------------------------===//

namespace {

struct CpuFixture : ::testing::Test {
  MemHierConfig HierConfig;
  std::unique_ptr<MemorySystem> Mem;
  CpuConfig Config;

  void SetUp() override {
    Mem = std::make_unique<MemorySystem>(HierConfig);
    Mem->mapRange(PuKind::Cpu, region::CpuPrivateBase, 1 << 20);
  }

  SegmentResult run(const TraceBuffer &Trace) {
    CpuCore Core(Config, *Mem);
    return Core.run(Trace.records().data(), Trace.size(), 0);
  }
};

} // namespace

TEST_F(CpuFixture, EmptyTraceIsFree) {
  TraceBuffer Trace;
  SegmentResult R = run(Trace);
  EXPECT_EQ(R.Cycles, 0u);
  EXPECT_EQ(R.Insts, 0u);
}

TEST_F(CpuFixture, IndependentAluReachesIssueWidth) {
  // A tight loop body (I-cache resident) of independent ALU ops.
  TraceBuffer Trace;
  for (unsigned I = 0; I != 4000; ++I)
    Trace.emitAlu(Opcode::IntAlu, 0x100 + (I % 16) * 4,
                  uint8_t(8 + I % 24), 0);
  SegmentResult R = run(Trace);
  // 4-wide fetch/issue/retire: ~1000 cycles.
  EXPECT_GT(R.ipc(), 3.0);
}

TEST_F(CpuFixture, LargeCodeFootprintMissesICache) {
  // Straight-line code streaming through 1MB of instructions cannot stay
  // in the 32KB L1I; the front end pays the miss penalty repeatedly.
  auto MakeStraightLine = [](uint32_t Span) {
    TraceBuffer Trace;
    for (unsigned I = 0; I != 8000; ++I)
      Trace.emitAlu(Opcode::IntAlu, 0x100 + (I * 4) % Span,
                    uint8_t(8 + I % 24), 0);
    return Trace;
  };
  SegmentResult Tight = run(MakeStraightLine(64));
  SegmentResult Huge = run(MakeStraightLine(1 << 20));
  EXPECT_EQ(Tight.ICacheMisses, 1u);
  EXPECT_GT(Huge.ICacheMisses, 100u);
  EXPECT_GT(Huge.Cycles, Tight.Cycles);
}

TEST_F(CpuFixture, DependentChainSerializes) {
  TraceBuffer Trace;
  for (unsigned I = 0; I != 2000; ++I)
    Trace.emitAlu(Opcode::FpMul, 0x100, 8, 8); // 5-cycle loop-carried chain.
  SegmentResult R = run(Trace);
  // Must take about 5 cycles per instruction.
  EXPECT_LT(R.ipc(), 0.25);
  EXPECT_GT(R.ipc(), 0.15);
}

TEST_F(CpuFixture, MispredictsAddBubbles) {
  Config.MispredictPenalty = 20;
  TraceBuffer Predictable, Random;
  XorShiftRng Rng(5);
  for (unsigned I = 0; I != 3000; ++I) {
    Predictable.emitAlu(Opcode::IntAlu, 0x100, uint8_t(8 + I % 8), 0);
    Predictable.emitBranch(0x200, true);
    Random.emitAlu(Opcode::IntAlu, 0x100, uint8_t(8 + I % 8), 0);
    Random.emitBranch(0x200, Rng.nextBool(0.5));
  }
  SegmentResult P = run(Predictable);
  SegmentResult R = run(Random);
  EXPECT_LT(P.BranchMispredicts * 10, R.BranchMispredicts);
  EXPECT_LT(P.Cycles * 3, R.Cycles); // Bubbles dominate the random run.
}

TEST_F(CpuFixture, RobLimitsMemoryLevelParallelism) {
  // A long stream of independent cold loads: a small ROB exposes memory
  // latency, a large ROB hides it.
  auto MakeLoads = []() {
    TraceBuffer Trace;
    for (unsigned I = 0; I != 4000; ++I)
      Trace.emitLoad(0x100, uint8_t(8 + I % 24),
                     region::CpuPrivateBase + I * 64, 4);
    return Trace;
  };

  Config.RobEntries = 8;
  SegmentResult Small = run(MakeLoads());

  SetUp(); // Fresh memory system (cold caches again).
  Config.RobEntries = 256;
  SegmentResult Large = run(MakeLoads());

  EXPECT_LT(Large.Cycles, Small.Cycles);
}

TEST_F(CpuFixture, StoresDoNotStallRetire) {
  // Stores drain through the store buffer: a stream of cold stores should
  // run near issue width, unlike cold loads.
  TraceBuffer Stores;
  for (unsigned I = 0; I != 2000; ++I)
    Stores.emitStore(0x100, 8, region::CpuPrivateBase + I * 64, 4);
  SegmentResult R = run(Stores);
  EXPECT_GT(R.ipc(), 1.0);
}

TEST_F(CpuFixture, LoadLatencyPropagatesToDependents) {
  // ld -> alu chain on a cold line vs. a warm line.
  TraceBuffer Cold;
  Cold.emitLoad(0x100, 8, region::CpuPrivateBase, 4);
  Cold.emitAlu(Opcode::IntAlu, 0x104, 9, 8);
  SegmentResult ColdR = run(Cold);

  TraceBuffer Warm;
  Warm.emitLoad(0x100, 8, region::CpuPrivateBase, 4);
  Warm.emitAlu(Opcode::IntAlu, 0x104, 9, 8);
  SegmentResult WarmR = run(Warm); // Caches retained in the fixture.
  EXPECT_LT(WarmR.Cycles, ColdR.Cycles);
}

TEST_F(CpuFixture, CountsMemoryOps) {
  TraceBuffer Trace;
  Trace.emitLoad(0x100, 8, region::CpuPrivateBase, 4);
  Trace.emitStore(0x104, 8, region::CpuPrivateBase + 64, 4);
  Trace.emitAlu(Opcode::IntAlu, 0x108, 9, 8);
  SegmentResult R = run(Trace);
  EXPECT_EQ(R.MemAccesses, 2u);
  EXPECT_EQ(R.Insts, 3u);
  EXPECT_GT(R.MemLatencySum, 0u);
}

TEST_F(CpuFixture, StartCycleOffsetsDoNotChangeDuration) {
  // A first run warms the I-cache, so the two timed runs see the same
  // front-end state; the property under test is time-shift invariance of
  // the pipeline model.
  TraceBuffer Trace;
  for (unsigned I = 0; I != 500; ++I)
    Trace.emitAlu(Opcode::IntAlu, 0x100 + I * 4, uint8_t(8 + I % 8), 0);
  CpuCore Core(Config, *Mem);
  const TraceRecord *Records = Trace.records().data();
  Core.run(Records, Trace.size(), 0);
  SegmentResult AtZero = Core.run(Records, Trace.size(), 0);
  SegmentResult Later = Core.run(Records, Trace.size(), 1000000);
  EXPECT_EQ(AtZero.ICacheMisses, 0u);
  EXPECT_EQ(Later.ICacheMisses, 0u);
  EXPECT_EQ(AtZero.Cycles, Later.Cycles);
}

TEST_F(CpuFixture, StoreForwardingShortCircuitsReload) {
  // store x; load x: the load forwards from the store buffer instead of
  // paying the hierarchy. The same pair with the load on another cold
  // line pays the hierarchy, so the difference is large.
  auto StoreThenLoad = [](Addr LoadAddr) {
    TraceBuffer Trace;
    Trace.emitStore(0x100, 8, region::CpuPrivateBase + 0x4000, 4);
    Trace.emitLoad(0x104, 9, LoadAddr, 4);
    Trace.emitAlu(Opcode::IntAlu, 0x108, 10, 9);
    return Trace;
  };
  SegmentResult Forwarded = run(StoreThenLoad(region::CpuPrivateBase + 0x4000));
  EXPECT_EQ(Forwarded.StoreForwards, 1u);

  SetUp(); // Cold caches again.
  SegmentResult NotForwarded =
      run(StoreThenLoad(region::CpuPrivateBase + 0x8000));
  EXPECT_EQ(NotForwarded.StoreForwards, 0u);
  EXPECT_LT(Forwarded.Cycles, NotForwarded.Cycles);
}

TEST_F(CpuFixture, ForwardingNeedsExactAddressMatch) {
  TraceBuffer Trace;
  Trace.emitStore(0x100, 8, region::CpuPrivateBase + 0x4000, 4);
  Trace.emitLoad(0x104, 9, region::CpuPrivateBase + 0x4004, 4); // Next word.
  SegmentResult R = run(Trace);
  EXPECT_EQ(R.StoreForwards, 0u);
}

TEST_F(CpuFixture, CpiStackDecomposes) {
  TraceBuffer Trace;
  XorShiftRng Rng(9);
  for (unsigned I = 0; I != 4000; ++I) {
    Trace.emitAlu(Opcode::IntAlu, 0x100, uint8_t(8 + I % 8), 0);
    Trace.emitBranch(0x104, Rng.nextBool(0.5));
  }
  SegmentResult R = run(Trace);
  CpiStack Stack = computeCpiStack(R, Config);
  EXPECT_NEAR(Stack.totalCpi(), double(R.Cycles) / double(R.Insts), 1e-9);
  EXPECT_GT(Stack.BranchCpi, 0.5); // Random branches dominate this run.
  EXPECT_DOUBLE_EQ(Stack.BaseCpi, 0.25);
  EXPECT_GE(Stack.MemDepCpi, 0.0);
}

TEST_F(CpuFixture, CpiStackEmptySegment) {
  CpiStack Stack = computeCpiStack(SegmentResult(), Config);
  EXPECT_DOUBLE_EQ(Stack.totalCpi(), 0.0);
}

TEST_F(CpuFixture, PredictorStatePersistsAcrossSegments) {
  // First segment trains the predictor on an always-taken branch; the
  // second segment should mispredict less than the first.
  TraceBuffer Trace;
  for (unsigned I = 0; I != 64; ++I) {
    Trace.emitAlu(Opcode::IntAlu, 0x100, 8, 0);
    Trace.emitBranch(0x104, true);
  }
  CpuCore Core(Config, *Mem);
  const TraceRecord *Records = Trace.records().data();
  SegmentResult First = Core.run(Records, Trace.size(), 0);
  SegmentResult Second = Core.run(Records, Trace.size(), First.Cycles);
  EXPECT_LE(Second.BranchMispredicts, First.BranchMispredicts);
}

TEST(CpuCoreDeath, ZeroRobEntriesIsRejected) {
  // An empty ROB has no slot to dispatch into; reject it up front rather
  // than index an empty ring.
  MemorySystem Mem;
  CpuConfig Config;
  Config.RobEntries = 0;
  EXPECT_DEATH({ CpuCore Core(Config, Mem); }, "ROB entry");
}
