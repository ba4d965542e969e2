//===- gpu/GpuCore.cpp ----------------------------------------------------===//

#include "gpu/GpuCore.h"

#include "common/Error.h"
#include "gpu/Coalescer.h"
#include "memory/MemorySystem.h"
#include "trace/ComputeBlock.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

using namespace hetsim;

GpuCore::GpuCore(const GpuConfig &Cfg, MemorySystem &Memory)
    : Config(Cfg), Mem(Memory) {
  if (Cfg.NumWarps == 0 || Cfg.IssueWidth == 0)
    fatalError("GPU needs at least one warp context and issue slot");
}

namespace {

/// In-order execution state of one warp context.
struct WarpState {
  std::array<Cycle, NumTraceRegs> RegReady;
  Cycle NextIssue;
  std::vector<Cycle> Pending; // Outstanding memory completions, unordered.
  Cycle LastComplete;

  explicit WarpState(Cycle Start) : NextIssue(Start), LastComplete(Start) {
    RegReady.fill(Start);
  }

  /// Drops the completions at or before \p Now. Only the count and the
  /// minimum of Pending are ever read, so a dropped entry is replaced by
  /// the last one instead of shifting the rest down.
  void retirePendingBefore(Cycle Now) {
    for (size_t I = 0; I != Pending.size();) {
      if (Pending[I] <= Now) {
        Pending[I] = Pending.back();
        Pending.pop_back();
      } else {
        ++I;
      }
    }
  }
};

/// The throughput model's full state with the reference per-record update
/// in step(). The trace is striped across NumWarps contexts in chunks of
/// WarpChunkRecords (so whole loop iterations stay inside one register
/// file); each context executes strictly in order with scoreboarded
/// operands and stall-on-branch; contexts are independent, which models a
/// zero-overhead warp scheduler hiding one warp's memory latency under the
/// others. The span and windowed paths both drive this one update
/// function.
struct GpuPipeline {
  MemorySystem &Mem;
  SegmentResult &Result;

  // The configuration scalars step() reads, held by value: stores through
  // the warp state and the result cannot alias them.
  const unsigned W;
  const unsigned Chunk;
  const unsigned PendingPerWarp;
  const Cycle BranchStall;
  const unsigned DivergentBranchFactor;

  std::vector<WarpState> Warps;
  Cycle LastComplete;
  // Record I goes to warp (I / Chunk) % W; kept by counting down the
  // chunk rather than dividing per record.
  unsigned WarpSlot = 0;
  unsigned ChunkLeft;
  std::vector<Addr> Lines; // Reused across records: no per-record allocation.

  GpuPipeline(const GpuConfig &Cfg, MemorySystem &Memory, SegmentResult &Res,
              Cycle StartCycle)
      : Mem(Memory), Result(Res), W(Cfg.NumWarps),
        Chunk(std::max(1u, Cfg.WarpChunkRecords)),
        PendingPerWarp(std::max(1u, Cfg.MaxPendingLoads / W + 1)),
        BranchStall(Cfg.BranchStall),
        DivergentBranchFactor(std::max(1u, Cfg.DivergentBranchFactor)),
        Warps(W, WarpState(StartCycle)), LastComplete(StartCycle),
        ChunkLeft(Chunk) {}

  // Inlined into runSpan's loop: a call per record would save and
  // restore every register the inlined hit walk uses.
  [[gnu::always_inline]] void step(const TraceRecord &R) {
    WarpState &Warp = Warps[WarpSlot];
    if (--ChunkLeft == 0) {
      ChunkLeft = Chunk;
      if (++WarpSlot == W)
        WarpSlot = 0;
    }

    Cycle IssueCycle = Warp.NextIssue;
    if (R.SrcRegA != NoReg)
      IssueCycle = std::max(IssueCycle, Warp.RegReady[R.SrcRegA]);
    if (R.SrcRegB != NoReg)
      IssueCycle = std::max(IssueCycle, Warp.RegReady[R.SrcRegB]);

    Cycle Complete = IssueCycle + executeLatency(PuKind::Gpu, R.Op);

    if (isGlobalMemoryOp(R.Op)) {
      Warp.retirePendingBefore(IssueCycle);
      if (Warp.Pending.size() >= PendingPerWarp) {
        Cycle Oldest =
            *std::min_element(Warp.Pending.begin(), Warp.Pending.end());
        IssueCycle = std::max(IssueCycle, Oldest);
        Warp.retirePendingBefore(IssueCycle);
      }
      Cycle WarpDone = IssueCycle;
      coalesceWarpAccess(R, Lines);
      for (Addr Line : Lines) {
        MemAccessResult MemResult = Mem.access(
            PuKind::Gpu, Line, CacheLineBytes, isStoreOp(R.Op), IssueCycle);
        ++Result.MemAccesses;
        Result.MemLatencySum += MemResult.Latency;
        Result.MemLatencyMax = std::max(Result.MemLatencyMax,
                                        MemResult.Latency);
        WarpDone = std::max(WarpDone, IssueCycle + MemResult.Latency);
      }
      if (!isStoreOp(R.Op)) {
        Complete = WarpDone;
        Warp.Pending.push_back(WarpDone);
      }
    } else if (R.Op == Opcode::SmemLoad || R.Op == Opcode::SmemStore) {
      Complete = IssueCycle +
                 Mem.scratchpadWarpAccess(R.MemAddr, R.MemBytes, R.SimdLanes,
                                          R.LaneStrideBytes, isStoreOp(R.Op));
    }

    if (R.DstReg != NoReg)
      Warp.RegReady[R.DstReg] = Complete;

    Warp.NextIssue = IssueCycle + 1;
    if (isBranchOp(R.Op)) {
      // No predictor: this warp's pipeline drains on every branch
      // (Table II); the other warps keep the core busy. Data-dependent
      // branches additionally diverge the warp (both paths execute).
      Cycle Stall = BranchStall;
      if (R.SrcRegA != NoReg && R.SrcRegA != 0)
        Stall *= DivergentBranchFactor;
      Warp.NextIssue = Complete + Stall;
      ++Result.BranchMispredicts; // Every branch pays the stall.
    }

    Warp.LastComplete = std::max(Warp.LastComplete, Complete);
    LastComplete = std::max(LastComplete, Complete);
  }

  void runSpan(const TraceRecord *Records, size_t Count) {
    for (size_t I = 0; I != Count; ++I)
      step(Records[I]);
  }
};

} // namespace

SegmentResult GpuCore::run(const TraceRecord *Records, size_t Count,
                           Cycle StartCycle) {
  SegmentResult Result;
  Result.Insts = Count;
  if (Count == 0)
    return Result;

  GpuPipeline Pipe(Config, Mem, Result, StartCycle);
  Pipe.runSpan(Records, Count);

  assert(Pipe.LastComplete >= StartCycle && "time went backwards");
  Cycle CriticalPath = Pipe.LastComplete - StartCycle;
  Cycle BandwidthFloor = ceilDiv(Count, Config.IssueWidth);
  Result.Cycles = std::max(CriticalPath, BandwidthFloor);
  return Result;
}

SegmentResult GpuCore::run(const SharedTrace &Trace, Cycle StartCycle) {
  SegmentResult Result;
  Result.Insts = Trace.size();
  if (Result.Insts == 0)
    return Result;

  GpuPipeline Pipe(Config, Mem, Result, StartCycle);
  BlockExpander Expander(*Trace.blocks());
  TraceBuffer Window;
  while (!Expander.done()) {
    Expander.next(Window);
    Pipe.runSpan(Window.records().data(), Window.size());
  }

  assert(Pipe.LastComplete >= StartCycle && "time went backwards");
  Cycle CriticalPath = Pipe.LastComplete - StartCycle;
  Cycle BandwidthFloor = ceilDiv(Result.Insts, Config.IssueWidth);
  Result.Cycles = std::max(CriticalPath, BandwidthFloor);
  return Result;
}
