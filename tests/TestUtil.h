//===- tests/TestUtil.h - Helpers shared by the test suites -----*- C++ -*-===//
///
/// \file
/// Production code never holds a lowered trace's whole record stream: it
/// reads block traces window by window. Tests that walk every record, or
/// that compare a block run against a materialized reference, build the
/// whole stream explicitly with materialize(). exactText() renders a
/// RunResult for bit-exact comparison.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TESTS_TESTUTIL_H
#define HETSIM_TESTS_TESTUTIL_H

#include "core/HeteroSimulator.h"
#include "trace/ComputeBlock.h"

#include <cstdio>
#include <string>

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

/// The whole record stream of \p Trace, whichever form it has.
inline TraceBuffer materialize(const SharedTrace &Trace) {
  if (const BlockTrace *Block = Trace.blocks())
    return materialize(*Block);
  return Trace.buffer();
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

} // namespace hetsim

#endif // HETSIM_TESTS_TESTUTIL_H
