//===- tests/trace_test.cpp - trace/ unit tests ---------------------------===//

#include "trace/DataLayout.h"
#include "trace/Kernel.h"
#include "trace/KernelTraceGenerator.h"
#include "trace/Opcode.h"
#include "trace/TraceBuffer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// Opcode classification and latencies.
//===----------------------------------------------------------------------===//

TEST(Opcode, Classification) {
  EXPECT_TRUE(isMemoryOp(Opcode::Load));
  EXPECT_TRUE(isMemoryOp(Opcode::SmemStore));
  EXPECT_FALSE(isMemoryOp(Opcode::FpMac));
  EXPECT_TRUE(isGlobalMemoryOp(Opcode::Store));
  EXPECT_FALSE(isGlobalMemoryOp(Opcode::SmemLoad));
  EXPECT_TRUE(isStoreOp(Opcode::Store));
  EXPECT_FALSE(isStoreOp(Opcode::Load));
  EXPECT_TRUE(isBranchOp(Opcode::Branch));
}

TEST(Opcode, LatenciesArePositive) {
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    Opcode Op = static_cast<Opcode>(I);
    EXPECT_GE(executeLatency(PuKind::Cpu, Op), 1u) << "opcode " << I;
    EXPECT_GE(executeLatency(PuKind::Gpu, Op), 1u) << "opcode " << I;
  }
}

TEST(Opcode, DividesAreLong) {
  EXPECT_GT(executeLatency(PuKind::Cpu, Opcode::IntDiv),
            executeLatency(PuKind::Cpu, Opcode::IntAlu));
  EXPECT_GT(executeLatency(PuKind::Gpu, Opcode::FpDiv),
            executeLatency(PuKind::Gpu, Opcode::FpMul));
}

//===----------------------------------------------------------------------===//
// TraceBuffer emission.
//===----------------------------------------------------------------------===//

TEST(TraceBuffer, EmittersRecordFields) {
  TraceBuffer Buffer;
  Buffer.emitLoad(0x100, 5, 0xABC0, 4);
  Buffer.emitStore(0x104, 6, 0xABD0, 8);
  Buffer.emitAlu(Opcode::FpMac, 0x108, 7, 5, 6);
  Buffer.emitBranch(0x10C, true, 7);
  ASSERT_EQ(Buffer.size(), 4u);

  EXPECT_EQ(Buffer[0].Op, Opcode::Load);
  EXPECT_EQ(Buffer[0].DstReg, 5);
  EXPECT_EQ(Buffer[0].MemAddr, 0xABC0u);
  EXPECT_EQ(Buffer[0].MemBytes, 4);

  EXPECT_EQ(Buffer[1].Op, Opcode::Store);
  EXPECT_EQ(Buffer[1].SrcRegA, 6);

  EXPECT_EQ(Buffer[2].Op, Opcode::FpMac);
  EXPECT_EQ(Buffer[2].SrcRegB, 6);

  EXPECT_TRUE(Buffer[3].IsTaken);
  EXPECT_EQ(Buffer[3].SrcRegA, 7);
}

TEST(TraceBuffer, SimdFields) {
  TraceBuffer Buffer;
  Buffer.emitSimdLoad(0x200, 9, 0x1000, 4, 8, 4);
  ASSERT_EQ(Buffer.size(), 1u);
  EXPECT_EQ(Buffer[0].SimdLanes, 8);
  EXPECT_EQ(Buffer[0].LaneStrideBytes, 4);
  EXPECT_EQ(Buffer[0].totalBytes(), 32u);
}

TEST(TraceBuffer, MixCounts) {
  TraceBuffer Buffer;
  Buffer.emitLoad(0, 1, 0x40, 4);
  Buffer.emitStore(4, 1, 0x80, 4);
  Buffer.emitAlu(Opcode::IntAlu, 8, 2, 1);
  Buffer.emitBranch(12, false);
  Buffer.emitSmem(false, 16, 3, 0, 4);
  TraceMix Mix = Buffer.computeMix();
  EXPECT_EQ(Mix.Total, 5u);
  EXPECT_EQ(Mix.Loads, 1u);
  EXPECT_EQ(Mix.Stores, 1u);
  EXPECT_EQ(Mix.Alu, 1u);
  EXPECT_EQ(Mix.Branches, 1u);
  EXPECT_EQ(Mix.Smem, 1u);
  EXPECT_EQ(Mix.MemBytes, 8u);
}

TEST(TraceBuffer, RecordIsCompact) {
  EXPECT_LE(sizeof(TraceRecord), 24u);
}

//===----------------------------------------------------------------------===//
// Kernel metadata: Table III invariants.
//===----------------------------------------------------------------------===//

class KernelMetaTest : public ::testing::TestWithParam<KernelId> {};

TEST_P(KernelMetaTest, HostToDeviceSizesMatchInitialTransfer) {
  KernelId Id = GetParam();
  const KernelCharacteristics &K = kernelCharacteristics(Id);
  uint64_t H2D = 0;
  for (const DataObjectSpec &Spec : kernelDataObjects(Id))
    if (Spec.Dir == TransferDir::HostToDevice)
      H2D += Spec.Bytes;
  EXPECT_EQ(H2D, K.InitialTransferBytes);
}

TEST_P(KernelMetaTest, HasInputsAndOutputs) {
  KernelId Id = GetParam();
  bool HasIn = false, HasOut = false;
  for (const DataObjectSpec &Spec : kernelDataObjects(Id)) {
    HasIn |= Spec.Dir == TransferDir::HostToDevice;
    HasOut |= Spec.Dir == TransferDir::DeviceToHost;
    EXPECT_GT(Spec.Bytes, 0u);
  }
  EXPECT_TRUE(HasIn);
  EXPECT_TRUE(HasOut);
}

TEST_P(KernelMetaTest, RoundTripByName) {
  KernelId Id = GetParam();
  KernelId Found;
  ASSERT_TRUE(kernelByName(kernelName(Id), Found));
  EXPECT_EQ(Found, Id);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelMetaTest,
                         ::testing::ValuesIn(allKernels()));

TEST(KernelMeta, TableThreeValues) {
  // Spot-check the exact Table III numbers.
  const KernelCharacteristics &R =
      kernelCharacteristics(KernelId::Reduction);
  EXPECT_EQ(R.CpuInsts, 70006u);
  EXPECT_EQ(R.GpuInsts, 70001u);
  EXPECT_EQ(R.SerialInsts, 99996u);
  EXPECT_EQ(R.NumComms, 2u);
  EXPECT_EQ(R.InitialTransferBytes, 320512u);

  const KernelCharacteristics &M = kernelCharacteristics(KernelId::MatrixMul);
  EXPECT_EQ(M.CpuInsts, 8585229u);
  EXPECT_EQ(M.InitialTransferBytes, 524288u);

  const KernelCharacteristics &KM = kernelCharacteristics(KernelId::KMeans);
  EXPECT_EQ(KM.NumComms, 6u);
  EXPECT_EQ(KM.GpuRounds, 3u);
}

TEST(KernelMeta, UnknownNameRejected) {
  KernelId Out;
  EXPECT_FALSE(kernelByName("not a kernel", Out));
}

//===----------------------------------------------------------------------===//
// DataLayout.
//===----------------------------------------------------------------------===//

TEST(DataLayout, LinearPlacementIsAlignedAndDisjoint) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::Reduction, 0x10000000, 4096);
  const auto &Segments = Layout.segments();
  ASSERT_EQ(Segments.size(), 3u);
  for (size_t I = 0; I != Segments.size(); ++I) {
    EXPECT_EQ(Segments[I].Base % 4096, 0u);
    if (I > 0) {
      EXPECT_GE(Segments[I].Base,
                Segments[I - 1].Base + Segments[I - 1].Bytes);
    }
  }
}

TEST(DataLayout, LookupAndContainment) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::MergeSort, 0x1000, 64);
  const DataSegment &Keys = Layout.segment("keys");
  EXPECT_TRUE(Keys.contains(Keys.Base));
  EXPECT_TRUE(Keys.contains(Keys.Base + Keys.Bytes - 1));
  EXPECT_FALSE(Keys.contains(Keys.Base + Keys.Bytes));
  EXPECT_TRUE(Layout.hasSegment("sorted"));
  EXPECT_FALSE(Layout.hasSegment("nope"));
  EXPECT_EQ(segmentContaining(Layout, Keys.Base + 8), &Keys);
  EXPECT_EQ(segmentContaining(Layout, 0x10), nullptr);
}

TEST(DataLayout, TotalBytes) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::KMeans, 0x2000);
  EXPECT_EQ(Layout.totalBytes(), 136192u + 5120u);
}

//===----------------------------------------------------------------------===//
// Generators: exact budgets, containment, determinism.
//===----------------------------------------------------------------------===//

struct GenCase {
  KernelId Kernel;
  PuKind Pu;
};

class GeneratorTest
    : public ::testing::TestWithParam<std::tuple<KernelId, PuKind>> {};

TEST_P(GeneratorTest, ExactInstructionBudget) {
  auto [Kernel, Pu] = GetParam();
  KernelDataLayout Layout = KernelDataLayout::makeLinear(Kernel, 0x10000000);
  GenRequest Req;
  Req.Pu = Pu;
  Req.InstCount = 5000;
  Req.Split = Pu == PuKind::Cpu ? WorkSplit::FirstHalf
                                : WorkSplit::SecondHalf;
  TraceBuffer Trace =
      KernelTraceGenerator::forKernel(Kernel).generateCompute(Req, Layout);
  EXPECT_EQ(Trace.size(), 5000u);
}

TEST_P(GeneratorTest, AddressesStayInsidePlacedObjects) {
  auto [Kernel, Pu] = GetParam();
  KernelDataLayout Layout = KernelDataLayout::makeLinear(Kernel, 0x10000000);
  GenRequest Req;
  Req.Pu = Pu;
  Req.InstCount = 8000;
  TraceBuffer Trace =
      KernelTraceGenerator::forKernel(Kernel).generateCompute(Req, Layout);
  for (const TraceRecord &R : Trace) {
    if (!isGlobalMemoryOp(R.Op))
      continue;
    Addr Last = R.MemAddr + (R.SimdLanes - 1) * uint64_t(R.LaneStrideBytes) +
                R.MemBytes - 1;
    EXPECT_NE(segmentContaining(Layout, R.MemAddr), nullptr)
        << kernelName(Kernel) << " base address escaped";
    EXPECT_NE(segmentContaining(Layout, Last), nullptr)
        << kernelName(Kernel) << " last lane escaped";
  }
}

TEST_P(GeneratorTest, Deterministic) {
  auto [Kernel, Pu] = GetParam();
  KernelDataLayout Layout = KernelDataLayout::makeLinear(Kernel, 0x10000000);
  GenRequest Req;
  Req.Pu = Pu;
  Req.InstCount = 3000;
  Req.Seed = 17;
  const KernelTraceGenerator &Gen = KernelTraceGenerator::forKernel(Kernel);
  TraceBuffer A = Gen.generateCompute(Req, Layout);
  TraceBuffer B = Gen.generateCompute(Req, Layout);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Op, B[I].Op);
    EXPECT_EQ(A[I].MemAddr, B[I].MemAddr);
    EXPECT_EQ(A[I].IsTaken, B[I].IsTaken);
  }
}

TEST_P(GeneratorTest, MixIsPlausible) {
  auto [Kernel, Pu] = GetParam();
  KernelDataLayout Layout = KernelDataLayout::makeLinear(Kernel, 0x10000000);
  GenRequest Req;
  Req.Pu = Pu;
  Req.InstCount = 20000;
  TraceBuffer Trace =
      KernelTraceGenerator::forKernel(Kernel).generateCompute(Req, Layout);
  TraceMix Mix = Trace.computeMix();
  // Every kernel loop has memory traffic, ALU work, and loop branches.
  EXPECT_GT(Mix.Loads, 0u);
  EXPECT_GT(Mix.Alu, 0u);
  EXPECT_GT(Mix.Branches, 0u);
  double MemFrac = double(Mix.Loads + Mix.Stores) / double(Mix.Total);
  EXPECT_GT(MemFrac, 0.05);
  EXPECT_LT(MemFrac, 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsBothPus, GeneratorTest,
    ::testing::Combine(::testing::ValuesIn(allKernels()),
                       ::testing::Values(PuKind::Cpu, PuKind::Gpu)));

TEST(Generator, GpuTracesUseSimd) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::Reduction, 0x10000000);
  GenRequest Req;
  Req.Pu = PuKind::Gpu;
  Req.InstCount = 600;
  TraceBuffer Trace = KernelTraceGenerator::forKernel(KernelId::Reduction)
                          .generateCompute(Req, Layout);
  bool SawWideAccess = false;
  for (const TraceRecord &R : Trace)
    if (isGlobalMemoryOp(R.Op) && R.SimdLanes == 8)
      SawWideAccess = true;
  EXPECT_TRUE(SawWideAccess);
}

TEST(Generator, MatrixMulGpuUsesScratchpad) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::MatrixMul, 0x10000000);
  GenRequest Req;
  Req.Pu = PuKind::Gpu;
  Req.InstCount = 1000;
  TraceBuffer Trace = KernelTraceGenerator::forKernel(KernelId::MatrixMul)
                          .generateCompute(Req, Layout);
  EXPECT_GT(Trace.computeMix().Smem, 0u);
}

TEST(Generator, MergeSortBranchesAreDataDependent) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::MergeSort, 0x10000000);
  GenRequest Req;
  Req.Pu = PuKind::Cpu;
  Req.InstCount = 14000;
  TraceBuffer Trace = KernelTraceGenerator::forKernel(KernelId::MergeSort)
                          .generateCompute(Req, Layout);
  uint64_t Taken = 0, NotTaken = 0;
  for (const TraceRecord &R : Trace) {
    if (!isBranchOp(R.Op))
      continue;
    // Only the compare branch (it has a condition register and alternates).
    if (R.IsTaken)
      ++Taken;
    else
      ++NotTaken;
  }
  // Roughly half the compare branches go each way; loop branches are all
  // taken, so "taken" dominates but "not taken" must be a solid fraction.
  EXPECT_GT(NotTaken, Taken / 8);
}

TEST(Generator, SerialBudgetExact) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::Reduction, 0x10000000);
  BlockTrace Serial(KernelId::Reduction, 99996, /*Seed=*/1, Layout);
  EXPECT_EQ(materialize(Serial).size(), 99996u);
}

TEST(Generator, SerialZeroBudgetEmpty) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::Dct, 0x10000000);
  BlockTrace Serial(KernelId::Dct, 0, /*Seed=*/1, Layout);
  EXPECT_TRUE(materialize(Serial).empty());
}

TEST(Generator, CpuAndGpuHalvesAreDisjoint) {
  // The CPU takes the first half of each (large) object and the GPU the
  // second; their address footprints must not overlap for split objects.
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::Reduction, 0x10000000);
  const KernelTraceGenerator &Gen =
      KernelTraceGenerator::forKernel(KernelId::Reduction);
  GenRequest CpuReq{PuKind::Cpu, 6000, 1, WorkSplit::FirstHalf};
  GenRequest GpuReq{PuKind::Gpu, 6000, 1, WorkSplit::SecondHalf};
  TraceBuffer CpuTrace = Gen.generateCompute(CpuReq, Layout);
  TraceBuffer GpuTrace = Gen.generateCompute(GpuReq, Layout);

  Addr CpuMax = 0;
  for (const TraceRecord &R : CpuTrace)
    if (isGlobalMemoryOp(R.Op))
      CpuMax = std::max(CpuMax, R.MemAddr);
  Addr GpuMin = ~Addr(0);
  for (const TraceRecord &R : GpuTrace)
    if (isGlobalMemoryOp(R.Op))
      GpuMin = std::min(GpuMin, R.MemAddr);
  // Compare within the first object only: take segment "a".
  const DataSegment &A = Layout.segment("a");
  Addr CpuMaxInA = 0, GpuMinInA = ~Addr(0);
  for (const TraceRecord &R : CpuTrace)
    if (isGlobalMemoryOp(R.Op) && A.contains(R.MemAddr))
      CpuMaxInA = std::max(CpuMaxInA, R.MemAddr);
  for (const TraceRecord &R : GpuTrace)
    if (isGlobalMemoryOp(R.Op) && A.contains(R.MemAddr))
      GpuMinInA = std::min(GpuMinInA, R.MemAddr);
  EXPECT_LT(CpuMaxInA, GpuMinInA);
}
