//===- tests/gpu_test.cpp - gpu/ unit tests -------------------------------===//

#include "gpu/Coalescer.h"
#include "gpu/GpuCore.h"
#include "memory/AddressSpaceModel.h"
#include "memory/MemorySystem.h"

#include <gtest/gtest.h>

#include <set>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// Coalescer.
//===----------------------------------------------------------------------===//

namespace {
TraceRecord warpLoad(Addr Base, uint16_t BytesPerLane, uint8_t Lanes,
                     uint16_t Stride) {
  TraceRecord R;
  R.Op = Opcode::Load;
  R.MemAddr = Base;
  R.MemBytes = BytesPerLane;
  R.SimdLanes = Lanes;
  R.LaneStrideBytes = Stride;
  return R;
}

/// The lines \p Record touches, through the warp issue loop's
/// capacity-reusing form.
std::vector<Addr> coalesce(const TraceRecord &Record) {
  std::vector<Addr> Lines;
  coalesceWarpAccess(Record, Lines);
  return Lines;
}
} // namespace

TEST(Coalescer, UnitStrideWordsCoalesceToOneLine) {
  // 8 lanes x 4B, stride 4, line-aligned: 32B inside one 64B line.
  auto Lines = coalesce(warpLoad(0x1000, 4, 8, 4));
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(Lines[0], 0x1000u);
}

TEST(Coalescer, MisalignedUnitStrideTouchesTwoLines) {
  auto Lines = coalesce(warpLoad(0x1030, 4, 8, 4));
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], 0x1000u);
  EXPECT_EQ(Lines[1], 0x1040u);
}

TEST(Coalescer, LargeStrideScattersOneLinePerLane) {
  auto Lines = coalesce(warpLoad(0x1000, 4, 8, 256));
  EXPECT_EQ(Lines.size(), 8u);
}

TEST(Coalescer, LaneStraddlingLineBoundary) {
  // An 8B lane access starting at line end touches both lines.
  auto Lines = coalesce(warpLoad(0x103C, 8, 1, 0));
  ASSERT_EQ(Lines.size(), 2u);
}

TEST(Coalescer, SingleLaneScalar) {
  auto Lines = coalesce(warpLoad(0x2000, 4, 1, 0));
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(Lines[0], 0x2000u);
}

TEST(Coalescer, ResultIsSortedUnique) {
  auto Lines = coalesce(warpLoad(0x1000, 4, 8, 16));
  for (size_t I = 1; I < Lines.size(); ++I)
    EXPECT_LT(Lines[I - 1], Lines[I]);
}

TEST(Coalescer, LineRunMatchesPerLaneUnion) {
  // Strides up to a line take the unbroken-run shortcut, larger ones the
  // per-lane path. Both must equal the set of lines the lanes touch, byte
  // by byte, for every lane count, width, stride and phase.
  for (unsigned Lanes = 0; Lanes <= 8; ++Lanes)
    for (uint16_t Bytes : {0, 1, 4, 8, 16, 64, 100})
      for (uint16_t Stride : {0, 1, 4, 8, 60, 63, 64, 65, 128, 200})
        for (Addr Base : {0x1000, 0x1004, 0x103C, 0x103F}) {
          TraceRecord R = warpLoad(Base, Bytes, uint8_t(Lanes), Stride);
          std::set<Addr> Want;
          for (unsigned Lane = 0; Lane != Lanes; ++Lane)
            for (unsigned B = 0; B != std::max<unsigned>(Bytes, 1); ++B)
              Want.insert(alignDown(Base + Lane * Stride + B, CacheLineBytes));
          std::vector<Addr> Got = coalesce(R);
          EXPECT_EQ(Got, std::vector<Addr>(Want.begin(), Want.end()))
              << Lanes << " lanes x " << Bytes << "B, stride " << Stride
              << ", base " << Base;
        }
}

//===----------------------------------------------------------------------===//
// GPU core timing.
//===----------------------------------------------------------------------===//

namespace {

struct GpuFixture : ::testing::Test {
  MemHierConfig HierConfig;
  std::unique_ptr<MemorySystem> Mem;
  GpuConfig Config;

  void SetUp() override {
    Mem = std::make_unique<MemorySystem>(HierConfig);
    Mem->mapRange(PuKind::Gpu, region::GpuPrivateBase, 1 << 20);
  }

  SegmentResult run(const TraceBuffer &Trace) {
    GpuCore Core(Config, *Mem);
    return Core.run(Trace.records().data(), Trace.size(), 0);
  }
};

} // namespace

TEST_F(GpuFixture, EmptyTraceIsFree) {
  TraceBuffer Trace;
  EXPECT_EQ(run(Trace).Cycles, 0u);
}

TEST_F(GpuFixture, BandwidthFloorAtIssueWidth) {
  TraceBuffer Trace;
  for (unsigned I = 0; I != 5000; ++I)
    Trace.emitAlu(Opcode::IntAlu, 0x100 + I * 4, uint8_t(8 + I % 24), 0);
  SegmentResult R = run(Trace);
  EXPECT_GE(R.Cycles, 5000u); // IssueWidth = 1.
  EXPECT_LE(R.Cycles, 5200u); // And not much more: independent work.
}

TEST_F(GpuFixture, EveryBranchStallsItsWarp) {
  Config.NumWarps = 1;
  Config.BranchStall = 8;
  TraceBuffer NoBranch, WithBranch;
  for (unsigned I = 0; I != 1000; ++I) {
    NoBranch.emitAlu(Opcode::IntAlu, 0x100, uint8_t(8 + I % 8), 0);
    WithBranch.emitAlu(Opcode::IntAlu, 0x100, uint8_t(8 + I % 8), 0);
    WithBranch.emitBranch(0x104, true);
  }
  SegmentResult A = run(NoBranch);
  SegmentResult B = run(WithBranch);
  EXPECT_EQ(B.BranchMispredicts, 1000u); // All branches pay.
  // Each branch adds >= BranchStall cycles to the single warp.
  EXPECT_GT(B.Cycles, A.Cycles + 1000 * Config.BranchStall);
}

TEST_F(GpuFixture, MoreWarpsHideBranchStalls) {
  auto MakeBranchy = []() {
    TraceBuffer Trace;
    for (unsigned I = 0; I != 4000; ++I) {
      Trace.emitAlu(Opcode::IntAlu, 0x100, uint8_t(8 + I % 8), 0);
      Trace.emitBranch(0x104, true);
    }
    return Trace;
  };
  Config.NumWarps = 1;
  SegmentResult OneWarp = run(MakeBranchy());
  Config.NumWarps = 16;
  SegmentResult SixteenWarps = run(MakeBranchy());
  EXPECT_LT(SixteenWarps.Cycles * 2, OneWarp.Cycles);
}

TEST_F(GpuFixture, MoreWarpsHideMemoryLatency) {
  auto MakeLoads = []() {
    TraceBuffer Trace;
    for (unsigned I = 0; I != 2000; ++I) {
      // Dependent use after each load inside an iteration.
      Trace.emitSimdLoad(0x100, 8, region::GpuPrivateBase + I * 64, 4, 8, 4);
      Trace.emitAlu(Opcode::FpAlu, 0x104, 9, 8);
    }
    return Trace;
  };
  Config.NumWarps = 1;
  SegmentResult OneWarp = run(MakeLoads());
  SetUp(); // Cold caches again.
  Config.NumWarps = 16;
  SegmentResult SixteenWarps = run(MakeLoads());
  EXPECT_LT(SixteenWarps.Cycles * 2, OneWarp.Cycles);
}

TEST_F(GpuFixture, CoalescedAccessCountsLineTransactions) {
  TraceBuffer Trace;
  // Scattered warp load: 8 distinct lines.
  Trace.emitSimdLoad(0x100, 8, region::GpuPrivateBase, 4, 8, 256);
  SegmentResult R = run(Trace);
  EXPECT_EQ(R.MemAccesses, 8u);

  TraceBuffer Trace2;
  Trace2.emitSimdLoad(0x100, 8, region::GpuPrivateBase + (1 << 18), 4, 8, 4);
  SegmentResult R2 = run(Trace2);
  EXPECT_EQ(R2.MemAccesses, 1u);
}

TEST_F(GpuFixture, ScratchpadFixedLatency) {
  TraceBuffer Trace;
  Trace.emitSmem(false, 0x100, 8, 0, 4);
  Trace.emitAlu(Opcode::IntAlu, 0x104, 9, 8);
  SegmentResult R = run(Trace);
  EXPECT_EQ(Mem->scratchpad().readCount(), 1u);
  // Smem latency (2) + dependent ALU: small, deterministic.
  EXPECT_LE(R.Cycles, 8u);
}

TEST_F(GpuFixture, StoresDoNotBlockWarpProgress) {
  TraceBuffer Trace;
  for (unsigned I = 0; I != 1000; ++I)
    Trace.emitSimdStore(0x100, 8, region::GpuPrivateBase + I * 64, 4, 8, 4);
  SegmentResult R = run(Trace);
  // Stores retire into the hierarchy without stalling dependents.
  EXPECT_LE(R.Cycles, 2500u);
}

TEST_F(GpuFixture, DataDependentBranchesDivergeAndCostMore) {
  Config.NumWarps = 1;
  Config.BranchStall = 8;
  Config.DivergentBranchFactor = 2;
  auto MakeBranchy = [](uint8_t CondReg) {
    TraceBuffer Trace;
    for (unsigned I = 0; I != 1000; ++I) {
      Trace.emitAlu(Opcode::IntAlu, 0x100, uint8_t(8 + I % 8), 0);
      Trace.emitBranch(0x104, I % 2 == 0, CondReg);
    }
    return Trace;
  };
  SegmentResult Loop = run(MakeBranchy(0));       // Uniform loop branch.
  SegmentResult Divergent = run(MakeBranchy(9));  // Data-dependent.
  // Each divergent branch pays an extra BranchStall (the final branch's
  // stall does not extend the segment, hence the - on the bound).
  EXPECT_GE(Divergent.Cycles + 8, Loop.Cycles + 1000 * 8);
}

TEST_F(GpuFixture, DivergenceFactorConfigurable) {
  Config.NumWarps = 1;
  Config.DivergentBranchFactor = 1; // Divergence modeling off.
  TraceBuffer Trace;
  for (unsigned I = 0; I != 500; ++I) {
    Trace.emitAlu(Opcode::IntAlu, 0x100, 8, 0);
    Trace.emitBranch(0x104, true, 9);
  }
  SegmentResult Off = run(Trace);
  Config.DivergentBranchFactor = 4;
  SegmentResult On = run(Trace);
  EXPECT_GT(On.Cycles, Off.Cycles);
}

TEST_F(GpuFixture, DeterministicAcrossRuns) {
  TraceBuffer Trace;
  for (unsigned I = 0; I != 3000; ++I) {
    Trace.emitSimdLoad(0x100, 8, region::GpuPrivateBase + (I % 512) * 64, 4,
                       8, 4);
    Trace.emitAlu(Opcode::FpMac, 0x104, 9, 8, 9);
    Trace.emitBranch(0x108, true);
  }
  SegmentResult A = run(Trace);
  SetUp();
  SegmentResult B = run(Trace);
  EXPECT_EQ(A.Cycles, B.Cycles);
}
