//===- tests/TestUtil.h - Helpers shared by the test suites -----*- C++ -*-===//
///
/// \file
/// Production code never holds a trace's whole record stream: it reads
/// block traces window by window. Tests that walk every record build the
/// whole stream explicitly with materialize(); tests that compare a block
/// run against a recorded reference replay the recording through a
/// ReplayGenerator. exactText() renders a RunResult for bit-exact
/// comparison. The remaining helpers are oracles over state that no
/// production path reads this way (segment lookup, directory sharers,
/// lint findings by kind, survey rows by name, a program's fault pages).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TESTS_TESTUTIL_H
#define HETSIM_TESTS_TESTUTIL_H

#include "analysis/LintDiagnostic.h"
#include "cache/Directory.h"
#include "core/HeteroSimulator.h"
#include "core/SystemDescriptor.h"
#include "trace/ComputeBlock.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace hetsim {

/// The whole record stream of \p Block: its BlockExpander windows,
/// concatenated.
inline TraceBuffer materialize(const BlockTrace &Block) {
  TraceBuffer Whole;
  Whole.reserve(size_t(Block.totalRecords()));
  BlockExpander Expander(Block);
  TraceBuffer Window;
  while (Expander.next(Window) != 0)
    for (const TraceRecord &Record : Window)
      Whole.append(Record);
  return Whole;
}

/// The whole record stream of \p Trace (empty for an empty handle).
inline TraceBuffer materialize(const SharedTrace &Trace) {
  if (const BlockTrace *Block = Trace.blocks())
    return materialize(*Block);
  return TraceBuffer();
}

/// A generator that replays a recorded stream, one record per iteration,
/// on either PU. Blocks over it stream through the same BlockExpander and
/// TraceReader paths as any trace, in windows of exactly the window size,
/// so they serve as the materialized reference for a kernel generator's
/// windows. Every replay generator is named "replay": keep their blocks
/// out of result stores.
class ReplayGenerator final : public KernelTraceGenerator {
public:
  explicit ReplayGenerator(TraceBuffer Recorded)
      : KernelTraceGenerator("replay", 0), Records(std::move(Recorded)) {}

  /// A block replaying the whole recording on \p Pu over \p Layout.
  std::shared_ptr<const BlockTrace>
  block(PuKind Pu, const KernelDataLayout &Layout) const {
    GenRequest Req;
    Req.Pu = Pu;
    Req.InstCount = Records.size();
    return std::make_shared<const BlockTrace>(*this, Req, Layout);
  }

protected:
  void setUpCursors(GenState &, const KernelDataLayout &,
                    WorkSplit) const override {}
  void cpuIteration(TraceEmitter &E, GenState &S) const override {
    replay(E, Records[size_t(S.Iter)]);
  }
  void gpuIteration(TraceEmitter &E, GenState &S) const override {
    replay(E, Records[size_t(S.Iter)]);
  }

private:
  /// Re-emits \p R through the emitter that produces its shape.
  static void replay(TraceEmitter &E, const TraceRecord &R) {
    const bool Scalar = R.SimdLanes == 1 && R.LaneStrideBytes == 0;
    switch (R.Op) {
    case Opcode::Load:
      if (Scalar)
        E.load(R.Pc, R.DstReg, R.MemAddr, R.MemBytes, R.SrcRegA);
      else
        E.simdLoad(R.Pc, R.DstReg, R.MemAddr, R.MemBytes, R.SimdLanes,
                   R.LaneStrideBytes);
      return;
    case Opcode::Store:
      if (Scalar)
        E.store(R.Pc, R.SrcRegA, R.MemAddr, R.MemBytes, R.SrcRegB);
      else
        E.simdStore(R.Pc, R.SrcRegA, R.MemAddr, R.MemBytes, R.SimdLanes,
                    R.LaneStrideBytes);
      return;
    case Opcode::Branch:
      E.branch(R.Pc, R.IsTaken, R.SrcRegA);
      return;
    case Opcode::SmemLoad:
      E.smem(false, R.Pc, R.DstReg, R.MemAddr, R.MemBytes, R.SimdLanes,
             R.LaneStrideBytes);
      return;
    case Opcode::SmemStore:
      E.smem(true, R.Pc, R.SrcRegA, R.MemAddr, R.MemBytes, R.SimdLanes,
             R.LaneStrideBytes);
      return;
    default:
      E.alu(R.Op, R.Pc, R.DstReg, R.SrcRegA, R.SrcRegB);
      return;
    }
  }

  TraceBuffer Records;
};

/// Keeps alive the replay generators that replayed traces point to.
using ReplayPool = std::vector<std::unique_ptr<ReplayGenerator>>;

/// \p Trace's record stream, recorded and replayed through a generator
/// that \p Pool owns.
inline SharedTrace replayOf(const SharedTrace &Trace, ReplayPool &Pool) {
  const BlockTrace *Block = Trace.blocks();
  if (!Block)
    return SharedTrace();
  Pool.push_back(std::make_unique<ReplayGenerator>(materialize(*Block)));
  return Pool.back()->block(Block->request().Pu, Block->layout());
}

/// True when \p A and \p B are the same record, field by field.
inline bool sameRecord(const TraceRecord &A, const TraceRecord &B) {
  return A.MemAddr == B.MemAddr && A.Pc == B.Pc && A.MemBytes == B.MemBytes &&
         A.LaneStrideBytes == B.LaneStrideBytes && A.Op == B.Op &&
         A.DstReg == B.DstReg && A.SrcRegA == B.SrcRegA &&
         A.SrcRegB == B.SrcRegB && A.SimdLanes == B.SimdLanes &&
         A.IsTaken == B.IsTaken;
}

/// Every RunResult field, doubles as hex floats: equal strings mean
/// bit-identical results.
inline std::string exactText(const RunResult &R) {
  std::string Out;
  char Buffer[64];
  auto Num = [&](double V) {
    std::snprintf(Buffer, sizeof(Buffer), "%a ", V);
    Out += Buffer;
  };
  auto Int = [&](uint64_t V) { Out += std::to_string(V) + " "; };
  Num(R.Time.SequentialNs);
  Num(R.Time.ParallelNs);
  Num(R.Time.CommunicationNs);
  for (double Ns : R.Phases.Ns)
    Num(Ns);
  for (const SegmentResult *S : {&R.CpuTotal, &R.GpuTotal}) {
    for (uint64_t V : {S->Cycles, S->Insts, S->MemAccesses, S->MemLatencySum,
                       S->MemLatencyMax, S->BranchMispredicts, S->ICacheMisses,
                       S->StoreForwards, S->PageFaults, S->PageFaultCycles})
      Int(V);
  }
  for (uint64_t V : {R.TransferredBytes, R.TransferCount, R.PageFaults,
                     R.OwnershipActions, uint64_t(R.CommSourceLines)})
    Int(V);
  Num(R.PushNs);
  return Out;
}

/// The segment of \p Layout containing \p Address, or nullptr.
inline const DataSegment *segmentContaining(const KernelDataLayout &Layout,
                                            Addr Address) {
  for (const DataSegment &S : Layout.segments())
    if (S.contains(Address))
      return &S;
  return nullptr;
}

/// True if \p Pu holds \p LineAddress according to \p Dir.
inline bool isSharer(const Directory &Dir, PuKind Pu, Addr LineAddress) {
  switch (Dir.state(LineAddress)) {
  case DirState::Uncached:
    return false;
  case DirState::SharedBoth:
    return true;
  case DirState::ExclusiveCpu:
    return Pu == PuKind::Cpu;
  case DirState::ExclusiveGpu:
    return Pu == PuKind::Gpu;
  }
  return false;
}

/// The first diagnostic of \p Kind in \p Report, or nullptr.
inline const LintDiagnostic *findKind(const LintReport &Report,
                                      LintKind Kind) {
  for (const LintDiagnostic &D : Report.Diags)
    if (D.Kind == Kind)
      return &D;
  return nullptr;
}

inline bool hasKind(const LintReport &Report, LintKind Kind) {
  return findKind(Report, Kind) != nullptr;
}

/// The Table I row named \p Scheme, or nullptr.
inline const SystemDescriptor *findSurveyEntry(const std::string &Scheme) {
  for (const SystemDescriptor &Row : tableOneSurvey())
    if (Row.Scheme == Scheme)
      return &Row;
  return nullptr;
}

/// Batched page-fault pages over all of \p Program's steps.
inline uint64_t totalPageFaultPages(const LoweredProgram &Program) {
  uint64_t Pages = 0;
  for (const ExecStep &Step : Program.Steps)
    Pages += Step.PageFaultPages;
  return Pages;
}

} // namespace hetsim

#endif // HETSIM_TESTS_TESTUTIL_H
