//===- cpu/CpuCore.cpp ----------------------------------------------------===//

#include "cpu/CpuCore.h"

#include "common/Error.h"
#include "common/FlatMap.h"
#include "memory/MemorySystem.h"
#include "trace/ComputeBlock.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace hetsim;

CpiStack hetsim::computeCpiStack(const SegmentResult &Result,
                                 const CpuConfig &Config) {
  CpiStack Stack;
  if (Result.Insts == 0)
    return Stack;
  double Insts = double(Result.Insts);
  Stack.BaseCpi = 1.0 / double(Config.IssueWidth);
  Stack.BranchCpi =
      double(Result.BranchMispredicts) * double(Config.MispredictPenalty) /
      Insts;
  Stack.FetchCpi =
      double(Result.ICacheMisses) * double(Config.L1IMissPenalty) / Insts;
  double Total = double(Result.Cycles) / Insts;
  Stack.MemDepCpi = Total - Stack.BaseCpi - Stack.BranchCpi - Stack.FetchCpi;
  if (Stack.MemDepCpi < 0)
    Stack.MemDepCpi = 0; // Overlap can hide charged penalties.
  return Stack;
}

CpuCore::CpuCore(const CpuConfig &Cfg, MemorySystem &Memory)
    : Config(Cfg), Mem(Memory), Predictor(Cfg.GshareTableBits),
      ICache(CacheConfig::cpuL1I()) {
  if (Cfg.RobEntries == 0)
    fatalError("CPU needs at least one ROB entry");
}

namespace {

/// The full per-segment pipeline state, with the reference per-record
/// update in step(). The span and windowed paths both drive this same
/// update code, so they agree by construction.
struct CpuPipeline {
  MemorySystem &Mem;
  GsharePredictor &Predictor;
  Cache &ICache;
  SegmentResult &Result;

  // The configuration scalars step() reads, held by value: stores through
  // the state arrays and the result cannot alias them, so they need no
  // reload per record.
  const unsigned FetchWidth;
  const unsigned IssueWidth;
  const unsigned RetireWidth;
  const Cycle MispredictPenalty;
  const Cycle L1IMissPenalty;

  // Operand readiness per architectural register.
  std::array<Cycle, NumTraceRegs> RegReady;
  // Retire times of in-flight instructions, a ring buffer of ROB size:
  // instruction I cannot dispatch until instruction I - RobEntries retired.
  // RobSlot is I mod RobEntries, kept by wrap-around rather than division.
  std::vector<Cycle> RobRetire;
  size_t RobSlot = 0;
  // Fetch: FetchWidth per cycle, stalled by mispredicted branches.
  Cycle FetchCycle;
  unsigned FetchedThisCycle = 0;
  // Issue bandwidth: IssueWidth per cycle.
  Cycle IssueBusyCycle;
  unsigned IssuedThisCycle = 0;
  // In-order retirement.
  Cycle LastRetire;
  unsigned RetiredThisCycle = 0;
  Addr LastFetchLine = ~Addr(0);
  // Store buffer for store-to-load forwarding: every exact address this
  // segment stored, as 64-address line -> one bit per byte offset. Issue
  // is in order (IssueBusyCycle never decreases), so a store's data is
  // always forwardable by the time a later load issues: the buffer needs
  // only which addresses were stored, not when.
  FlatU64Map<uint64_t> StoreBuffer;
  // One bit per 4KB page (folded into 4096 bits) that some store of this
  // segment wrote. The buffer holds every address stored so far and can
  // outgrow the host caches; loads from pages no store touched (a
  // kernel's inputs) skip the probe. Bits are never cleared, so the
  // filter only ever removes probes that would miss.
  std::array<uint64_t, 64> StorePages{};

  static unsigned storePageBit(Addr A) { return unsigned(A >> 12) & 4095; }

  CpuPipeline(const CpuConfig &Cfg, MemorySystem &Memory,
              GsharePredictor &Pred, Cache &L1I, SegmentResult &Res,
              Cycle StartCycle)
      : Mem(Memory), Predictor(Pred), ICache(L1I), Result(Res),
        FetchWidth(Cfg.FetchWidth), IssueWidth(Cfg.IssueWidth),
        RetireWidth(Cfg.RetireWidth),
        MispredictPenalty(Cfg.MispredictPenalty),
        L1IMissPenalty(Cfg.L1IMissPenalty),
        RobRetire(Cfg.RobEntries, StartCycle), FetchCycle(StartCycle),
        IssueBusyCycle(StartCycle), LastRetire(StartCycle) {
    RegReady.fill(StartCycle);
  }

  // Inlined into runSpan's loop: a call per record would save and
  // restore every register the inlined hit walk uses.
  [[gnu::always_inline]] void step(const TraceRecord &R) {
    // --- Fetch ---
    if (FetchedThisCycle >= FetchWidth) {
      ++FetchCycle;
      FetchedThisCycle = 0;
    }
    // Instruction fetch goes through the L1I one line at a time; a miss
    // stalls the front end.
    Addr FetchLine = alignDown(R.Pc, CacheLineBytes);
    if (FetchLine != LastFetchLine) {
      LastFetchLine = FetchLine;
      if (!ICache.access(FetchLine, /*IsWrite=*/false).Hit) {
        ++Result.ICacheMisses;
        FetchCycle += L1IMissPenalty;
        FetchedThisCycle = 0;
      }
    }
    ++FetchedThisCycle;

    // --- Dispatch: needs a ROB slot ---
    Cycle &RobEntry = RobRetire[RobSlot];
    Cycle DispatchCycle = std::max(FetchCycle, RobEntry);

    // --- Issue: operands + an issue slot ---
    Cycle Ready = DispatchCycle;
    if (R.SrcRegA != NoReg)
      Ready = std::max(Ready, RegReady[R.SrcRegA]);
    if (R.SrcRegB != NoReg)
      Ready = std::max(Ready, RegReady[R.SrcRegB]);
    if (Ready > IssueBusyCycle) {
      IssueBusyCycle = Ready;
      IssuedThisCycle = 0;
    } else if (IssuedThisCycle >= IssueWidth) {
      ++IssueBusyCycle;
      IssuedThisCycle = 0;
      Ready = IssueBusyCycle;
    } else {
      Ready = IssueBusyCycle;
    }
    ++IssuedThisCycle;
    Cycle IssueCycle = Ready;

    // --- Execute ---
    Cycle Complete = IssueCycle + executeLatency(PuKind::Cpu, R.Op);
    if (isGlobalMemoryOp(R.Op)) {
      MemAccessResult MemResult = Mem.access(
          PuKind::Cpu, R.MemAddr, std::max<uint32_t>(R.MemBytes, 1),
          isStoreOp(R.Op), IssueCycle);
      ++Result.MemAccesses;
      Result.MemLatencySum += MemResult.Latency;
      Result.MemLatencyMax = std::max(Result.MemLatencyMax,
                                      MemResult.Latency);
      // Stores complete for dependence purposes after address+data issue;
      // the store buffer hides their memory time. Loads wait for data —
      // unless a recent store to the same address forwards it.
      const unsigned PageBit = storePageBit(R.MemAddr);
      if (isStoreOp(R.Op)) {
        StoreBuffer[R.MemAddr >> 6] |= uint64_t(1) << (R.MemAddr & 63);
        StorePages[PageBit / 64] |= uint64_t(1) << (PageBit % 64);
      } else {
        Complete = IssueCycle + MemResult.Latency;
        if (StorePages[PageBit / 64] >> (PageBit % 64) & 1) {
          const uint64_t *Stored = StoreBuffer.find(R.MemAddr >> 6);
          if (Stored && (*Stored >> (R.MemAddr & 63) & 1)) {
            ++Result.StoreForwards;
            Complete = IssueCycle + 1;
          }
        }
      }
    }

    if (R.DstReg != NoReg)
      RegReady[R.DstReg] = Complete;

    // --- Branch resolution ---
    if (isBranchOp(R.Op)) {
      bool Correct = Predictor.update(R.Pc, R.IsTaken);
      if (!Correct) {
        ++Result.BranchMispredicts;
        // Refetch from the resolved target.
        Cycle Refetch = Complete + MispredictPenalty;
        if (Refetch > FetchCycle) {
          FetchCycle = Refetch;
          FetchedThisCycle = 0;
        }
      }
    }

    // --- In-order retirement ---
    Cycle Retire = std::max(Complete, LastRetire);
    if (Retire > LastRetire) {
      LastRetire = Retire;
      RetiredThisCycle = 0;
    } else if (RetiredThisCycle >= RetireWidth) {
      ++LastRetire;
      RetiredThisCycle = 0;
      Retire = LastRetire;
    } else {
      Retire = LastRetire;
    }
    ++RetiredThisCycle;

    RobEntry = Retire;
    if (++RobSlot == RobRetire.size())
      RobSlot = 0;
  }

  void runSpan(const TraceRecord *Records, size_t Count) {
    for (size_t Index = 0; Index != Count; ++Index)
      step(Records[Index]);
  }
};

} // namespace

SegmentResult CpuCore::run(const TraceRecord *Records, size_t Count,
                           Cycle StartCycle) {
  SegmentResult Result;
  Result.Insts = Count;
  if (Count == 0)
    return Result;

  CpuPipeline Pipe(Config, Mem, Predictor, ICache, Result, StartCycle);
  Pipe.runSpan(Records, Count);

  assert(Pipe.LastRetire >= StartCycle && "time went backwards");
  Result.Cycles = Pipe.LastRetire - StartCycle;
  return Result;
}

SegmentResult CpuCore::run(const SharedTrace &Trace, Cycle StartCycle) {
  SegmentResult Result;
  Result.Insts = Trace.size();
  if (Result.Insts == 0)
    return Result;

  CpuPipeline Pipe(Config, Mem, Predictor, ICache, Result, StartCycle);
  BlockExpander Expander(*Trace.blocks());
  TraceBuffer Window;
  while (!Expander.done()) {
    Expander.next(Window);
    Pipe.runSpan(Window.records().data(), Window.size());
  }

  assert(Pipe.LastRetire >= StartCycle && "time went backwards");
  Result.Cycles = Pipe.LastRetire - StartCycle;
  return Result;
}
