//===- tests/fastpath_test.cpp - Block-trace differential equivalence -----===//
///
/// \file
/// Block traces are exact: expanding a (generator, request) recipe window
/// by window must give results byte-identical to running the recorded
/// record stream. These tests run both — whole lowered programs (the six
/// kernels and the extra workloads), with and without the
/// interleaved-contention driver, against test-only replay generators,
/// and single core segments against their materialized buffers — and
/// assert identical RunResults, SegmentResults and metrics documents.
///
//===----------------------------------------------------------------------===//

#include "core/ExtraWorkloads.h"
#include "core/HeteroSimulator.h"
#include "gpu/GpuCore.h"
#include "memory/MemorySystem.h"
#include "obs/Metrics.h"
#include "trace/ComputeBlock.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

using namespace hetsim;

namespace {

void expectSegmentEq(const SegmentResult &A, const SegmentResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Cycles, B.Cycles) << What;
  EXPECT_EQ(A.Insts, B.Insts) << What;
  EXPECT_EQ(A.MemAccesses, B.MemAccesses) << What;
  EXPECT_EQ(A.MemLatencySum, B.MemLatencySum) << What;
  EXPECT_EQ(A.MemLatencyMax, B.MemLatencyMax) << What;
  EXPECT_EQ(A.BranchMispredicts, B.BranchMispredicts) << What;
  EXPECT_EQ(A.ICacheMisses, B.ICacheMisses) << What;
  EXPECT_EQ(A.StoreForwards, B.StoreForwards) << What;
  EXPECT_EQ(A.PageFaults, B.PageFaults) << What;
  EXPECT_EQ(A.PageFaultCycles, B.PageFaultCycles) << What;
}

void expectRunResultEq(const RunResult &A, const RunResult &B,
                       const std::string &What) {
  EXPECT_EQ(A.Time.SequentialNs, B.Time.SequentialNs) << What;
  EXPECT_EQ(A.Time.ParallelNs, B.Time.ParallelNs) << What;
  EXPECT_EQ(A.Time.CommunicationNs, B.Time.CommunicationNs) << What;
  for (unsigned P = 0; P != NumRunPhases; ++P)
    EXPECT_EQ(A.Phases.Ns[P], B.Phases.Ns[P]) << What << " phase " << P;
  expectSegmentEq(A.CpuTotal, B.CpuTotal, What + " cpu");
  expectSegmentEq(A.GpuTotal, B.GpuTotal, What + " gpu");
  EXPECT_EQ(A.TransferredBytes, B.TransferredBytes) << What;
  EXPECT_EQ(A.TransferCount, B.TransferCount) << What;
  EXPECT_EQ(A.PageFaults, B.PageFaults) << What;
  EXPECT_EQ(A.OwnershipActions, B.OwnershipActions) << What;
  EXPECT_EQ(A.PushNs, B.PushNs) << What;
  EXPECT_EQ(A.CommSourceLines, B.CommSourceLines) << What;
}

/// Runs \p Program on a fresh simulator of \p Config and returns the
/// result plus the metrics snapshot.
std::pair<RunResult, MetricsSnapshot>
runProgram(const SystemConfig &Config, const LoweredProgram &Program) {
  HeteroSimulator Sim(Config);
  RunResult Result = Sim.runLowered(Program);
  MetricsSnapshot Metrics = Sim.collectMetrics(Result);
  return {Result, Metrics};
}

/// \p Program with every step's traces recorded and replayed through
/// generators that \p Pool owns, so the cores see the same records in
/// windows of a different shape.
LoweredProgram replayedCopy(const LoweredProgram &Program, ReplayPool &Pool) {
  LoweredProgram Copy = Program;
  for (ExecStep &Step : Copy.Steps) {
    Step.CpuTrace = replayOf(Step.CpuTrace, Pool);
    Step.GpuTrace = replayOf(Step.GpuTrace, Pool);
  }
  return Copy;
}

/// Runs \p Program and its replayed copy on \p Config and requires
/// identical results and metrics documents.
void expectReplayMatches(const SystemConfig &Config,
                         const LoweredProgram &Program,
                         const std::string &What) {
  auto [BlockResult, BlockMetrics] = runProgram(Config, Program);
  ReplayPool Pool;
  auto [RefResult, RefMetrics] =
      runProgram(Config, replayedCopy(Program, Pool));
  expectRunResultEq(RefResult, BlockResult, What);
  // The metrics documents must match verbatim: same keys, same values.
  EXPECT_EQ(renderMetricsJson(RefMetrics), renderMetricsJson(BlockMetrics))
      << What;
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole-simulation differential: every kernel on every memory model.
//===----------------------------------------------------------------------===//

TEST(FastPathDifferential, AllKernelsAllModelsIdentical) {
  for (CaseStudy Study : allCaseStudies()) {
    SystemConfig Config = SystemConfig::forCaseStudy(Study);
    for (KernelId Kernel : allKernels()) {
      std::string What = std::string(caseStudyName(Study)) + "/" +
                         kernelName(Kernel);
      LoweredProgram Program = lowerKernel(Kernel, Config);
      ASSERT_TRUE(std::any_of(
          Program.Steps.begin(), Program.Steps.end(),
          [](const ExecStep &Step) { return Step.CpuTrace.blocks(); }))
          << What << ": lowering no longer emits block traces";
      expectReplayMatches(Config, Program, What);
    }
    for (ExtraWorkloadId Id : allExtraWorkloads())
      expectReplayMatches(Config, buildExtraWorkload(Id, Config),
                          std::string(caseStudyName(Study)) + "/" +
                              extraWorkloadName(Id));
  }
}

//===----------------------------------------------------------------------===//
// Interleaved-contention differential: the driver slices traces through
// TraceReader, whose spans straddle windows differently for kernel and
// replay generators; both must feed the cores the same records in the
// same time-ordered slices.
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Kernel on \p Study with interleaved contention at \p Slice
/// records per slice, as lowered and replayed, and requires bit-identical
/// results.
void expectInterleavedRunsMatch(CaseStudy Study, KernelId Kernel,
                                unsigned Slice) {
  SystemConfig Config = SystemConfig::forCaseStudy(Study);
  Config.InterleavedContention = true;
  Config.ContentionSliceRecords = Slice;
  std::string What = std::string(caseStudyName(Study)) + "/" +
                     kernelName(Kernel) + " slice " + std::to_string(Slice);
  LoweredProgram Program = lowerKernel(Kernel, Config);
  auto [BlockResult, BlockMetrics] = runProgram(Config, Program);
  ReplayPool Pool;
  auto [RefResult, RefMetrics] =
      runProgram(Config, replayedCopy(Program, Pool));
  EXPECT_EQ(exactText(RefResult), exactText(BlockResult)) << What;
  EXPECT_EQ(renderMetricsJson(RefMetrics), renderMetricsJson(BlockMetrics))
      << What;
}

} // namespace

TEST(FastPathInterleaved, AllKernelsDefaultSliceIdentical) {
  const unsigned DefaultSlice = SystemConfig().ContentionSliceRecords;
  ASSERT_EQ(DefaultSlice, 4096u);
  for (CaseStudy Study : {CaseStudy::IdealHetero, CaseStudy::CpuGpu})
    for (KernelId Kernel : allKernels())
      expectInterleavedRunsMatch(Study, Kernel, DefaultSlice);
}

// Slices of one record, of a few records (every slice straddles or splits
// a generator iteration), just over one window, and longer than a whole
// trace.
TEST(FastPathInterleaved, OddSlicesIdentical) {
  for (KernelId Kernel : {KernelId::Reduction, KernelId::MergeSort})
    for (unsigned Slice : {1u, 3u, 4097u, 1u << 20})
      expectInterleavedRunsMatch(CaseStudy::IdealHetero, Kernel, Slice);
}

//===----------------------------------------------------------------------===//
// Core-level differential: one block segment vs its materialized stream.
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Trace (a SharedTrace or a TraceBuffer) on a fresh core of type
/// \p CoreT over a memory system with \p Layout mapped for \p Pu.
template <typename CoreT, typename ConfigT, typename TraceT>
SegmentResult runSegment(PuKind Pu, const KernelDataLayout &Layout,
                         const TraceT &Trace) {
  MemorySystem Mem{MemHierConfig()};
  for (const DataSegment &Segment : Layout.segments())
    Mem.mapRange(Pu, Segment.Base, Segment.Bytes);
  CoreT Core(ConfigT(), Mem);
  return Core.run(Trace, 0);
}

/// Compares the windowed and materialized runs of every kernel's compute
/// segment of \p Records records on \p Pu.
template <typename CoreT, typename ConfigT>
void expectBlockRunsMatch(PuKind Pu, Addr Base, uint64_t Records) {
  for (KernelId Kernel : allKernels()) {
    KernelDataLayout Layout = KernelDataLayout::makeLinear(Kernel, Base);
    GenRequest Req;
    Req.Pu = Pu;
    Req.InstCount = Records;
    Req.Seed = 3;
    auto Block = std::make_shared<const BlockTrace>(Kernel, Req, Layout);
    std::string What =
        std::string(kernelName(Kernel)) + " x" + std::to_string(Records);
    SegmentResult Windowed =
        runSegment<CoreT, ConfigT>(Pu, Layout, SharedTrace(Block));
    SegmentResult Reference =
        runSegment<CoreT, ConfigT>(Pu, Layout, materialize(*Block));
    expectSegmentEq(Reference, Windowed, What);
    EXPECT_EQ(Windowed.Insts, Records) << What;
  }
}

} // namespace

// A block spanning many expansion windows.
TEST(FastPathFold, CpuPatternFoldMatchesReference) {
  expectBlockRunsMatch<CpuCore, CpuConfig>(PuKind::Cpu, region::CpuPrivateBase,
                                           50000);
}

// A block shorter than a single expansion window.
TEST(FastPathFold, CpuShortPatternBelowWarmupMatches) {
  expectBlockRunsMatch<CpuCore, CpuConfig>(PuKind::Cpu, region::CpuPrivateBase,
                                           1000);
}

TEST(FastPathFold, GpuPatternFoldMatchesReference) {
  expectBlockRunsMatch<GpuCore, GpuConfig>(PuKind::Gpu, region::GpuPrivateBase,
                                           50000);
}

TEST(FastPathFold, GpuShortPatternMatches) {
  expectBlockRunsMatch<GpuCore, GpuConfig>(PuKind::Gpu, region::GpuPrivateBase,
                                           1000);
}

//===----------------------------------------------------------------------===//
// Windowed expansion equivalence at the trace layer.
//===----------------------------------------------------------------------===//

namespace {

/// Requires \p Block's windows, concatenated, to equal its single-shot
/// generation, and a replay of that stream to reproduce it exactly.
void expectWindowsConcatenate(const BlockTrace &Block,
                              const std::string &What) {
  const TraceBuffer Reference =
      Block.generator().generateCompute(Block.request(), Block.layout());
  BlockExpander Expander(Block);
  TraceBuffer Window;
  size_t Pos = 0;
  while (!Expander.done()) {
    uint64_t Got = Expander.next(Window);
    ASSERT_GT(Got, 0u) << What;
    for (size_t I = 0; I != Got; ++I, ++Pos) {
      ASSERT_LT(Pos, Reference.size()) << What;
      ASSERT_TRUE(sameRecord(Window[I], Reference[Pos]))
          << What << " record " << Pos;
    }
  }
  EXPECT_EQ(Pos, Reference.size()) << What;

  ReplayGenerator Replay(Reference);
  const TraceBuffer Replayed =
      materialize(*Replay.block(Block.request().Pu, Block.layout()));
  ASSERT_EQ(Replayed.size(), Reference.size()) << What;
  for (size_t I = 0; I != Reference.size(); ++I)
    ASSERT_TRUE(sameRecord(Replayed[I], Reference[I]))
        << What << " replayed record " << I;
}

} // namespace

TEST(FastPathExpansion, WindowsConcatenateToMaterializedStream) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::KMeans, region::CpuPrivateBase);
  GenRequest Req;
  Req.Pu = PuKind::Cpu;
  Req.InstCount = 50000;
  Req.Seed = 7;
  expectWindowsConcatenate(BlockTrace(KernelId::KMeans, Req, Layout),
                           "k-mean");

  // The extra workloads' CPU and GPU halves.
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  for (ExtraWorkloadId Id : allExtraWorkloads()) {
    LoweredProgram Program = buildExtraWorkload(Id, Config);
    for (const ExecStep &Step : Program.Steps) {
      if (Step.Kind != ExecKind::ParallelCompute)
        continue;
      ASSERT_TRUE(Step.CpuTrace.blocks() && Step.GpuTrace.blocks());
      expectWindowsConcatenate(*Step.CpuTrace.blocks(),
                               std::string(extraWorkloadName(Id)) + " cpu");
      expectWindowsConcatenate(*Step.GpuTrace.blocks(),
                               std::string(extraWorkloadName(Id)) + " gpu");
    }
  }
}

// A block handle has no records to hand out: reaching for them must fail
// loudly and point at the streaming readers.
TEST(FastPathExpansionDeathTest, BufferOnBlockHandleNamesBlockExpander) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::Reduction, region::CpuPrivateBase);
  GenRequest Req;
  Req.Pu = PuKind::Cpu;
  Req.InstCount = 100;
  SharedTrace Trace(
      std::make_shared<const BlockTrace>(KernelId::Reduction, Req, Layout));
  EXPECT_DEATH(Trace.buffer(), "BlockExpander");
}
