//===- tests/fastpath_test.cpp - Block-trace differential equivalence -----===//
///
/// \file
/// Block traces are exact: expanding a (generator, request) recipe window
/// by window must give results byte-identical to running the recorded
/// record stream. These tests run both — whole lowered programs (the six
/// kernels), with and without the
/// interleaved-contention driver, against test-only replay generators,
/// and single core segments against their materialized buffers — and
/// assert identical RunResults, SegmentResults and metrics documents.
///
/// The memory walk's shortcuts are exact too, and each has a differential
/// test against a naive reference kept here: the cache's per-field arrays
/// and first-minimum LRU against a per-set recency list, its paired-
/// compare set match against a scalar scan, the integer clock conversion
/// against the float path, the TLB's cached frames against the page table
/// across remaps and its two-entry memo against a set-scan LRU, the
/// visibility table against the address-space models, the dense
/// coherence directory against a map of tracked lines, and the cursor
/// emitter against single-shot generation when an iteration overruns its
/// slack.
///
//===----------------------------------------------------------------------===//

#include "cache/Cache.h"
#include "cache/Directory.h"
#include "common/Random.h"
#include "common/Units.h"
#include "core/HeteroSimulator.h"
#include "gpu/GpuCore.h"
#include "memory/AddressSpaceModel.h"
#include "memory/MemorySystem.h"
#include "memory/Tlb.h"
#include "obs/Metrics.h"
#include "trace/ComputeBlock.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

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
  if constexpr (std::is_same_v<TraceT, TraceBuffer>)
    return Core.run(Trace.records().data(), Trace.size(), 0);
  else
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

  // The GPU half: warp-granularity iterations over the upper half.
  Req.Pu = PuKind::Gpu;
  Req.Split = WorkSplit::SecondHalf;
  expectWindowsConcatenate(BlockTrace(KernelId::KMeans, Req, Layout),
                           "k-mean gpu");
}

namespace {

/// A generator whose every iteration emits 200 records, more than the
/// emitter's 64-record slack past the window target, of every kind.
class WideIterationGenerator final : public KernelTraceGenerator {
public:
  WideIterationGenerator() : KernelTraceGenerator("wide-iteration", 0x700000) {}

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &,
                    WorkSplit) const override {
    S.Cur[0].Base = region::CpuPrivateBase;
    S.Cur[0].Bytes = 1 << 20;
  }
  void cpuIteration(TraceEmitter &E, GenState &S) const override {
    emit(E, S, /*Gpu=*/false);
  }
  void gpuIteration(TraceEmitter &E, GenState &S) const override {
    emit(E, S, /*Gpu=*/true);
  }

private:
  void emit(TraceEmitter &E, GenState &S, bool Gpu) const {
    const uint32_t Pc = pcBase();
    for (unsigned I = 0; I != 40; ++I) {
      const uint8_t R = uint8_t(8 + (S.Iter + I) % 24);
      const Addr A = S.Cur[0].advance(Gpu ? 32 : 4);
      if (Gpu) {
        E.simdLoad(Pc, R, A, 4, 8, 4);
        E.smem(/*IsStore=*/I % 2 == 0, Pc + 4, R, (S.Iter * 32) % 16384, 4);
        E.simdStore(Pc + 8, R, A, 4, 8, 4);
      } else {
        E.load(Pc, R, A, 4);
        E.store(Pc + 8, R, A, 4, uint8_t(R + 1));
        E.alu(Opcode::IntAlu, Pc + 4, uint8_t(R + 1), R);
      }
      E.alu(Opcode::FpAlu, Pc + 12, 7, 7, R);
      E.branch(Pc + 16, S.Rng.nextBool(0.5), R);
    }
  }
};

} // namespace

TEST(FastPathExpansion, EmitterGrowsPastSlack) {
  const WideIterationGenerator Gen;
  const KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::Reduction, region::CpuPrivateBase);
  for (PuKind Pu : {PuKind::Cpu, PuKind::Gpu}) {
    GenRequest Req;
    Req.Pu = Pu;
    Req.InstCount = 30030; // Ends mid-iteration.
    Req.Seed = 3;
    const BlockTrace Block(Gen, Req, Layout);
    const std::string What = Pu == PuKind::Cpu ? "cpu" : "gpu";
    expectWindowsConcatenate(Block, What);

    // Every window but the last stops at the first iteration boundary at
    // or past the target: 21 iterations, 4200 records, which is more than
    // the emitter extended up front.
    BlockExpander Expander(Block);
    TraceBuffer Window;
    uint64_t Total = 0;
    while (!Expander.done()) {
      const uint64_t Got = Expander.next(Window);
      ASSERT_EQ(Window.size(), Got) << What;
      Total += Got;
      if (!Expander.done()) {
        EXPECT_EQ(Got, 4200u) << What;
      }
    }
    EXPECT_EQ(Total, Req.InstCount) << What;
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

//===----------------------------------------------------------------------===//
// Cache: per-field arrays and first-minimum LRU against a recency list.
//===----------------------------------------------------------------------===//

namespace {

/// A naive reference cache: per set, a list of resident lines from most
/// to least recently used.
class ReferenceCache {
public:
  struct Line {
    Addr Address;
    bool Dirty;
    bool Explicit;
  };
  struct Outcome {
    bool Hit = false;
    bool Bypassed = false;
    bool Evicted = false;
    Line Victim{};
  };

  ReferenceCache(const CacheConfig &Config)
      : Ways(Config.Ways), NumSets(Config.numSets()),
        Hybrid(Config.Replacement == ReplacementKind::HybridLru),
        MaxExplicit(Config.Ways - 1), Sets(NumSets) {}

  Outcome access(Addr Address, bool IsWrite, bool MarkExplicit) {
    Outcome Out;
    std::list<Line> &Set = setOf(Address);
    auto It = find(Set, Address);
    if (It != Set.end()) {
      Out.Hit = true;
      Line L = *It;
      Set.erase(It);
      L.Dirty |= IsWrite;
      L.Explicit |= MarkExplicit;
      Set.push_front(L);
      return Out;
    }
    if (Set.size() == Ways) {
      auto Victim = chooseVictim(Set, MarkExplicit);
      if (Victim == Set.end()) {
        Out.Bypassed = true;
        return Out;
      }
      Out.Evicted = true;
      Out.Victim = *Victim;
      Set.erase(Victim);
    }
    Set.push_front({Address, IsWrite, MarkExplicit});
    return Out;
  }

  /// Removes \p Address; returns whether it was dirty.
  bool invalidate(Addr Address) {
    std::list<Line> &Set = setOf(Address);
    auto It = find(Set, Address);
    if (It == Set.end())
      return false;
    const bool Dirty = It->Dirty;
    Set.erase(It);
    return Dirty;
  }

  /// Cleans \p Address; returns whether it was dirty.
  bool downgrade(Addr Address) {
    std::list<Line> &Set = setOf(Address);
    auto It = find(Set, Address);
    if (It == Set.end())
      return false;
    const bool Dirty = It->Dirty;
    It->Dirty = false;
    return Dirty;
  }

  /// Empties the cache; returns the dirty lines' addresses, sorted.
  std::vector<Addr> flushAll() {
    std::vector<Addr> Written;
    for (std::list<Line> &Set : Sets) {
      for (const Line &L : Set)
        if (L.Dirty)
          Written.push_back(L.Address);
      Set.clear();
    }
    std::sort(Written.begin(), Written.end());
    return Written;
  }

  std::vector<Line> lines() const {
    std::vector<Line> All;
    for (const std::list<Line> &Set : Sets)
      All.insert(All.end(), Set.begin(), Set.end());
    return All;
  }

private:
  std::list<Line> &setOf(Addr Address) {
    return Sets[(Address / CacheLineBytes) % NumSets];
  }
  static std::list<Line>::iterator find(std::list<Line> &Set, Addr Address) {
    return std::find_if(Set.begin(), Set.end(), [Address](const Line &L) {
      return L.Address == Address;
    });
  }
  /// The least recently used line the fill may evict, or end() (bypass).
  std::list<Line>::iterator chooseVictim(std::list<Line> &Set,
                                         bool FillIsExplicit) {
    if (Hybrid && FillIsExplicit) {
      unsigned ExplicitLines = 0;
      for (const Line &L : Set)
        ExplicitLines += L.Explicit;
      if (ExplicitLines >= MaxExplicit)
        return lru(Set, [](const Line &L) { return L.Explicit; });
    }
    if (Hybrid && !FillIsExplicit)
      return lru(Set, [](const Line &L) { return !L.Explicit; });
    return lru(Set, [](const Line &) { return true; });
  }
  template <typename Pred>
  static std::list<Line>::iterator lru(std::list<Line> &Set, Pred Eligible) {
    for (auto It = Set.end(); It != Set.begin();) {
      --It;
      if (Eligible(*It))
        return It;
    }
    return Set.end();
  }

  unsigned Ways;
  unsigned NumSets;
  bool Hybrid;
  unsigned MaxExplicit;
  std::vector<std::list<Line>> Sets;
};

void expectCacheMatchesReference(unsigned Ways, ReplacementKind Replacement,
                                 uint64_t Seed) {
  constexpr unsigned NumSets = 4;
  CacheConfig Config;
  Config.Name = "differential";
  Config.SizeBytes = uint64_t(NumSets) * Ways * CacheLineBytes;
  Config.Ways = Ways;
  Config.Replacement = Replacement;
  const bool Hybrid = Replacement == ReplacementKind::HybridLru;
  const std::string What = std::to_string(Ways) + "-way " +
                           (Hybrid ? "hybrid-lru" : "lru") + " seed " +
                           std::to_string(Seed);

  Cache C(Config);
  ReferenceCache Ref(Config);
  XorShiftRng Rng(Seed);
  // Twice as many tags per set as ways: hits, misses and evictions mix.
  const uint64_t Tags = 2 * uint64_t(Ways);
  for (unsigned Step = 0; Step != 20000; ++Step) {
    const Addr Address = (Rng.nextBelow(Tags) * NumSets +
                          Rng.nextBelow(NumSets)) * CacheLineBytes;
    const uint64_t Op = Rng.nextBelow(100);
    const std::string At = What + " step " + std::to_string(Step);
    if (Op < 85) {
      const bool IsWrite = Rng.nextBool(0.3);
      const bool MarkExplicit = Hybrid && Rng.nextBool(0.2);
      const CacheAccessResult Got = C.access(Address, IsWrite, MarkExplicit);
      const ReferenceCache::Outcome Want =
          Ref.access(Address, IsWrite, MarkExplicit);
      ASSERT_EQ(Got.Hit, Want.Hit) << At;
      ASSERT_EQ(Got.BypassedFill, Want.Bypassed) << At;
      const bool WantWriteback = Want.Evicted && Want.Victim.Dirty;
      ASSERT_EQ(Got.WroteBack, WantWriteback) << At;
      if (WantWriteback) {
        ASSERT_EQ(Got.VictimAddr, Want.Victim.Address) << At;
      }
      if (Want.Evicted) {
        ASSERT_FALSE(C.probe(Want.Victim.Address)) << At << " victim";
      }
    } else if (Op < 92) {
      ASSERT_EQ(C.invalidate(Address), Ref.invalidate(Address)) << At;
    } else if (Op < 99) {
      ASSERT_EQ(C.downgradeToShared(Address), Ref.downgrade(Address)) << At;
    } else {
      std::vector<Addr> Written;
      C.flushAll([&Written](Addr A) { Written.push_back(A); });
      std::sort(Written.begin(), Written.end());
      ASSERT_EQ(Written, Ref.flushAll()) << At;
    }

    const std::vector<ReferenceCache::Line> Lines = Ref.lines();
    ASSERT_EQ(C.residentLines(), Lines.size()) << At;
    unsigned ExplicitLines = 0;
    for (const ReferenceCache::Line &L : Lines) {
      ASSERT_TRUE(C.probe(L.Address)) << At;
      ExplicitLines += L.Explicit;
    }
    ASSERT_EQ(C.residentExplicitLines(), ExplicitLines) << At;
  }
}

} // namespace

TEST(FastPathCache, MatchesReferenceLru) {
  for (unsigned Ways : {2u, 3u, 4u, 8u, 16u, 32u})
    for (ReplacementKind Replacement :
         {ReplacementKind::Lru, ReplacementKind::HybridLru})
      for (uint64_t Seed : {1u, 2u})
        expectCacheMatchesReference(Ways, Replacement, Seed);
}

//===----------------------------------------------------------------------===//
// Clock conversion: the integer form against the float path.
//===----------------------------------------------------------------------===//

namespace {

/// The conversion through nanoseconds, as two float steps rounded up.
Cycle floatConvert(PuKind From, PuKind To, Cycle Cycles) {
  const double FromHz = From == PuKind::Cpu ? 3.5e9 : 1.5e9;
  const double ToHz = To == PuKind::Cpu ? 3.5e9 : 1.5e9;
  const double Ns = double(Cycles) * 1e9 / FromHz;
  const double ToCycles = Ns * ToHz / 1e9;
  const Cycle Floor = static_cast<Cycle>(ToCycles);
  return ToCycles > double(Floor) ? Floor + 1 : Floor;
}

/// Counts the values of \p Values whose conversion disagrees, reporting
/// the first few.
template <typename Range>
unsigned countMismatches(PuKind From, PuKind To, const Range &Values) {
  unsigned Mismatches = 0;
  for (Cycle C : Values) {
    const Cycle Got = convertCycles(From, To, C);
    const Cycle Want = floatConvert(From, To, C);
    if (Got != Want && ++Mismatches <= 5)
      ADD_FAILURE() << "convertCycles(" << (From == PuKind::Cpu ? "cpu" : "gpu")
                    << ", " << C << ") = " << Got << ", float path " << Want;
  }
  return Mismatches;
}

} // namespace

TEST(FastPathUnits, ConvertCyclesMatchesFloatPath) {
  const std::pair<PuKind, PuKind> Directions[] = {{PuKind::Cpu, PuKind::Gpu},
                                                  {PuKind::Gpu, PuKind::Cpu}};
  // Exhaustive below 2^22: both integer regimes and the float path for
  // multiples at or above 2^21.
  std::vector<Cycle> Small(Cycle(1) << 22);
  for (Cycle C = 0; C != Small.size(); ++C)
    Small[C] = C;
  // Seeded values below 2^41: both sides of the 2^40 bound.
  XorShiftRng Rng(2026);
  std::vector<Cycle> Large(10000000);
  for (Cycle &C : Large)
    C = Rng.next() >> 23;
  // The bounds, their neighbours, and the nearest multiples of 3 and 7.
  std::vector<Cycle> Edges;
  for (Cycle Bound : {Cycle(1) << 21, Cycle(1) << 40})
    for (Cycle Near = Bound - 1; Near <= Bound + 1; ++Near)
      for (Cycle Den : {Cycle(1), Cycle(3), Cycle(7)})
        for (Cycle Multiple : {Near / Den * Den, (Near / Den + 1) * Den,
                               (Near / Den - 1) * Den})
          Edges.push_back(Multiple);

  for (auto [From, To] : Directions) {
    EXPECT_EQ(countMismatches(From, To, Small), 0u);
    EXPECT_EQ(countMismatches(From, To, Large), 0u);
    EXPECT_EQ(countMismatches(From, To, Edges), 0u);
  }
  EXPECT_EQ(convertCycles(PuKind::Cpu, PuKind::Cpu, 12345), 12345u);
}

//===----------------------------------------------------------------------===//
// TLB frames against the page table across remaps.
//===----------------------------------------------------------------------===//

TEST(FastPathTlb, FrameMatchesPageTableAcrossRemap) {
  MemorySystem Mem;
  // Each PU's range sits at one of two bases, and remaps move it between
  // them, so a TLB entry that outlived its mapping would serve a frame
  // the page table no longer holds. Accesses touch only the base that is
  // mapped now: an unmapped page is fatal.
  struct Range {
    PuKind Pu;
    Addr Bases[2];
    uint64_t Bytes;
    unsigned At = 0; ///< Index of the mapped base.
  };
  Range Ranges[] = {
      {PuKind::Cpu,
       {region::CpuPrivateBase, region::CpuPrivateBase + 0x1000000},
       64 * 4096},
      {PuKind::Gpu, {region::SharedBase, region::SharedBase + 0x1000000},
       8 * 65536},
  };
  for (const Range &R : Ranges)
    Mem.mapRange(R.Pu, R.Bases[0], R.Bytes);

  XorShiftRng Rng(11);
  Cycle Now[2] = {0, 0};
  for (unsigned Step = 0; Step != 40000; ++Step) {
    Range &R = Ranges[Rng.nextBelow(2)];
    PageTable &Pt = Mem.pageTable(R.Pu);
    if (Rng.nextBelow(500) == 0) {
      // Move the range to its sibling base (or back).
      Mem.remapRange(R.Pu, R.Bases[R.At], R.Bases[R.At ^ 1], R.Bytes);
      ASSERT_FALSE(Pt.frameOf(R.Bases[R.At]).has_value()) << "step " << Step;
      R.At ^= 1;
      continue;
    }
    const Addr VAddr = R.Bases[R.At] + Rng.nextBelow(R.Bytes / 4) * 4;
    Cycle &Clock = Now[R.Pu == PuKind::Cpu ? 0 : 1];
    Mem.access(R.Pu, VAddr, 4, Rng.nextBool(0.3), Clock);
    Clock += 10;

    const std::optional<Addr> PAddr = Pt.translate(VAddr);
    ASSERT_TRUE(PAddr.has_value()) << "step " << Step;
    Cache &L1 = R.Pu == PuKind::Cpu ? Mem.cpuL1() : Mem.gpuL1();
    ASSERT_TRUE(L1.probe(alignDown(*PAddr, CacheLineBytes)))
        << "step " << Step;
  }
  EXPECT_GT(Mem.stats().counter("mem.remap_pages"), 0u);
}

//===----------------------------------------------------------------------===//
// Cache: the paired-compare set match against a scalar scan.
//===----------------------------------------------------------------------===//

namespace {

/// Drives a cache of \p Ways ways and \p Replacement with writes,
/// invalidations and flushes, and holds every hit, probe and resident
/// count against a scalar scan of the lines the cache must hold. Every
/// access writes, so every eviction reports its victim and the reference
/// follows each replacement decision without modelling the policy.
void expectSetMatchMatchesScan(unsigned Ways, ReplacementKind Replacement,
                               uint64_t Seed) {
  constexpr unsigned NumSets = 4;
  CacheConfig Config;
  Config.Name = "set-match";
  Config.SizeBytes = uint64_t(NumSets) * Ways * CacheLineBytes;
  Config.Ways = Ways;
  Config.Replacement = Replacement;
  const bool Hybrid = Replacement == ReplacementKind::HybridLru;
  const std::string What = std::to_string(Ways) + "-way policy " +
                           std::to_string(unsigned(Replacement)) + " seed " +
                           std::to_string(Seed);

  Cache C(Config);
  // The resident lines of each set, scanned one by one.
  std::vector<std::vector<Addr>> Sets(NumSets);
  auto SetOf = [&](Addr A) -> std::vector<Addr> & {
    return Sets[(A / CacheLineBytes) % NumSets];
  };
  auto Holds = [&](Addr A) {
    const std::vector<Addr> &Set = SetOf(A);
    for (Addr Line : Set)
      if (Line == A)
        return true;
    return false;
  };
  auto Drop = [&](Addr A) {
    std::vector<Addr> &Set = SetOf(A);
    for (Addr &Line : Set)
      if (Line == A) {
        Line = Set.back();
        Set.pop_back();
        return true;
      }
    return false;
  };

  XorShiftRng Rng(Seed);
  // Twice as many tags per set as ways: hits, misses and evictions mix.
  const uint64_t Tags = 2 * uint64_t(Ways);
  for (unsigned Step = 0; Step != 6000; ++Step) {
    const unsigned SetIdx = unsigned(Rng.nextBelow(NumSets));
    const Addr Address =
        (Rng.nextBelow(Tags) * NumSets + SetIdx) * CacheLineBytes;
    const uint64_t Op = Rng.nextBelow(100);
    const std::string At = What + " step " + std::to_string(Step);
    // A flush every 2000 steps, so even 65-way sets fill between them.
    if (Step % 2000 == 1999) {
      std::vector<Addr> Written, Want;
      C.flushAll([&Written](Addr A) { Written.push_back(A); });
      for (std::vector<Addr> &Set : Sets) {
        Want.insert(Want.end(), Set.begin(), Set.end());
        Set.clear();
      }
      std::sort(Written.begin(), Written.end());
      std::sort(Want.begin(), Want.end());
      ASSERT_EQ(Written, Want) << At;
    } else if (Op < 90) {
      const bool MarkExplicit = Hybrid && Rng.nextBool(0.2);
      const bool Present = Holds(Address);
      const CacheAccessResult Got = C.access(Address, true, MarkExplicit);
      ASSERT_EQ(Got.Hit, Present) << At;
      if (!Got.Hit && !Got.BypassedFill) {
        if (Got.WroteBack) {
          ASSERT_EQ(Got.VictimAddr / CacheLineBytes % NumSets, SetIdx) << At;
          ASSERT_TRUE(Drop(Got.VictimAddr)) << At << " victim not resident";
        } else {
          ASSERT_LT(SetOf(Address).size(), Ways) << At << " silent eviction";
        }
        SetOf(Address).push_back(Address);
      }
    } else {
      ASSERT_EQ(C.invalidate(Address), Drop(Address)) << At;
    }

    size_t Resident = 0;
    for (const std::vector<Addr> &Set : Sets)
      Resident += Set.size();
    ASSERT_EQ(C.residentLines(), Resident) << At;
    // Every tag of the touched set, resident or not.
    for (uint64_t T = 0; T != Tags; ++T) {
      const Addr Probe = (T * NumSets + SetIdx) * CacheLineBytes;
      ASSERT_EQ(C.probe(Probe), Holds(Probe)) << At << " probe " << Probe;
    }
  }
  EXPECT_GT(C.stats().Hits, 0u) << What;
  EXPECT_GT(C.stats().Evictions, 0u) << What;
}

} // namespace

TEST(FastPathCache, SetMatchMatchesScalarScan) {
  // Odd way counts take the padded row; 65 ways take two masks.
  for (unsigned Ways : {1u, 2u, 3u, 4u, 8u, 16u, 32u, 65u})
    for (ReplacementKind Replacement :
         {ReplacementKind::Lru, ReplacementKind::HybridLru})
      for (uint64_t Seed : {1u, 2u})
        expectSetMatchMatchesScan(Ways, Replacement, Seed);
}

//===----------------------------------------------------------------------===//
// Visibility: the per-run region table against canAccess.
//===----------------------------------------------------------------------===//

namespace {

/// One address per region; the Unknown one lies above every region.
const std::pair<MemRegion, Addr> VisibilityProbes[] = {
    {MemRegion::CpuPrivate, region::CpuPrivateBase + 0x40},
    {MemRegion::GpuPrivate, region::GpuPrivateBase + 0x40},
    {MemRegion::Shared, region::SharedBase + 0x40},
    {MemRegion::Unknown, region::SharedBase + region::RegionSpan + 0x40},
};

/// Maps every probe for both PUs, so only the visibility check can stop
/// an access.
void mapVisibilityProbes(MemorySystem &Mem) {
  for (PuKind Pu : {PuKind::Cpu, PuKind::Gpu})
    for (auto [Region, Address] : VisibilityProbes) {
      ASSERT_EQ(regionOf(Address), Region);
      Mem.mapRange(Pu, Address, 4);
    }
}

} // namespace

TEST(FastPathVisibility, TableMatchesCanAccess) {
  // Every pair the model grants walks on, with a cold and then a warm
  // TLB; FastPathVisibilityDeathTest covers the pairs it forbids.
  for (AddressSpaceKind Kind :
       {AddressSpaceKind::Unified, AddressSpaceKind::Disjoint,
        AddressSpaceKind::PartiallyShared, AddressSpaceKind::Adsm}) {
    MemorySystem Mem;
    mapVisibilityProbes(Mem);
    Mem.setAddressSpace(Kind);
    for (PuKind Pu : {PuKind::Cpu, PuKind::Gpu})
      for (auto [Region, Address] : VisibilityProbes) {
        if (!canAccess(Kind, Pu, Region))
          continue;
        for (Cycle Now : {Cycle(0), Cycle(1000)})
          EXPECT_GT(Mem.access(Pu, Address, 4, false, Now).Latency, 0u)
              << addressSpaceName(Kind) << " " << puKindName(Pu)
              << " region " << unsigned(Region);
      }
  }

  // No address space set yet: every region is visible.
  MemorySystem Mem;
  mapVisibilityProbes(Mem);
  for (PuKind Pu : {PuKind::Cpu, PuKind::Gpu})
    for (auto [Region, Address] : VisibilityProbes)
      EXPECT_GT(Mem.access(Pu, Address, 4, false, 0).Latency, 0u);
}

TEST(FastPathVisibilityDeathTest, EachForbiddenPairAborts) {
  // Each (model, PU, region) the model forbids aborts naming the PU, the
  // address and the region, whether the TLB misses or already holds the
  // page (warmed under the unified space, which grants every region).
  unsigned Forbidden = 0;
  for (AddressSpaceKind Kind :
       {AddressSpaceKind::Unified, AddressSpaceKind::Disjoint,
        AddressSpaceKind::PartiallyShared, AddressSpaceKind::Adsm}) {
    for (PuKind Pu : {PuKind::Cpu, PuKind::Gpu})
      for (auto [Region, Address] : VisibilityProbes) {
        if (canAccess(Kind, Pu, Region))
          continue;
        ++Forbidden;
        char Expected[160];
        std::snprintf(Expected, sizeof(Expected),
                      "%s access to virtual address 0x%llx \\(%s region\\): "
                      "the address-space model forbids it",
                      puKindName(Pu), static_cast<unsigned long long>(Address),
                      MemRegionNames[unsigned(Region)]);
        MemorySystem Mem;
        mapVisibilityProbes(Mem);
        Mem.setAddressSpace(Kind);
        EXPECT_DEATH(Mem.access(Pu, Address, 4, false, 0), Expected)
            << addressSpaceName(Kind);
        Mem.setAddressSpace(AddressSpaceKind::Unified);
        Mem.access(Pu, Address, 4, false, 0);
        Mem.setAddressSpace(Kind);
        EXPECT_DEATH(Mem.access(Pu, Address, 4, false, 1000), Expected)
            << addressSpaceName(Kind) << " (TLB hit)";
      }
  }
  // Disjoint forbids each PU the other's space, the shared region and
  // unknown space; ADSM forbids the GPU CPU-private and unknown space.
  EXPECT_EQ(Forbidden, 8u);
}

//===----------------------------------------------------------------------===//
// Directory: the dense line vector against a map of tracked lines.
//===----------------------------------------------------------------------===//

namespace {

/// The MESI directory protocol over a map that holds only tracked lines.
class ReferenceDirectory {
public:
  CoherenceAction access(PuKind Pu, Addr Line, bool IsWrite) {
    CoherenceAction Action;
    const DirState Mine = exclusiveOf(Pu);
    auto It = Lines.find(Line);
    if (It == Lines.end()) {
      Lines[Line] = {Mine, IsWrite};
      return Action;
    }
    Entry &E = It->second;
    if (E.State == DirState::SharedBoth) {
      if (IsWrite) {
        Action.InvalidateRemote = true;
        Action.Messages = 2;
        E = {Mine, true};
      }
      return Action;
    }
    if (E.State == Mine) {
      E.Dirty |= IsWrite;
      return Action;
    }
    if (E.Dirty) {
      Action.FetchFromRemote = true;
      Action.Messages += 2;
    }
    if (IsWrite) {
      Action.InvalidateRemote = true;
      Action.Messages += 2;
      E = {Mine, true};
    } else {
      E = {DirState::SharedBoth, false};
    }
    return Action;
  }

  void evict(PuKind Pu, Addr Line) {
    auto It = Lines.find(Line);
    if (It == Lines.end())
      return;
    if (It->second.State == DirState::SharedBoth)
      It->second = {exclusiveOf(otherPu(Pu)), false};
    else if (It->second.State == exclusiveOf(Pu))
      Lines.erase(It);
  }

  DirState state(Addr Line) const {
    auto It = Lines.find(Line);
    return It == Lines.end() ? DirState::Uncached : It->second.State;
  }
  size_t tracked() const { return Lines.size(); }

private:
  struct Entry {
    DirState State;
    bool Dirty;
  };
  static DirState exclusiveOf(PuKind Pu) {
    return Pu == PuKind::Cpu ? DirState::ExclusiveCpu
                             : DirState::ExclusiveGpu;
  }
  std::map<Addr, Entry> Lines;
};

} // namespace

TEST(FastPathDirectory, DenseMatchesReferenceMap) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    Directory Dir;
    ReferenceDirectory Ref;
    XorShiftRng Rng(Seed);
    DirectoryStats Want;
    const std::string What = "seed " + std::to_string(Seed);
    for (unsigned Step = 0; Step != 30000; ++Step) {
      // A hot range of 256 lines, and now and then a far line that grows
      // the vector.
      const uint64_t LineNo = Rng.nextBool(0.01)
                                  ? 4096 + Rng.nextBelow(1u << 16)
                                  : Rng.nextBelow(256);
      const Addr Line = LineNo * CacheLineBytes;
      const PuKind Pu = Rng.nextBool(0.5) ? PuKind::Cpu : PuKind::Gpu;
      const std::string At = What + " step " + std::to_string(Step);
      if (Rng.nextBelow(100) < 75) {
        const bool IsWrite = Rng.nextBool(0.4);
        const CoherenceAction Got = Dir.onAccess(Pu, Line, IsWrite);
        const CoherenceAction Exp = Ref.access(Pu, Line, IsWrite);
        ASSERT_EQ(Got.InvalidateRemote, Exp.InvalidateRemote) << At;
        ASSERT_EQ(Got.FetchFromRemote, Exp.FetchFromRemote) << At;
        ASSERT_EQ(Got.Messages, Exp.Messages) << At;
        ++Want.Lookups;
        Want.RemoteInvalidations += Exp.InvalidateRemote;
        Want.RemoteFetches += Exp.FetchFromRemote;
        Want.Messages += Exp.Messages;
      } else {
        Dir.onEviction(Pu, Line);
        Ref.evict(Pu, Line);
      }
      ASSERT_EQ(Dir.state(Line), Ref.state(Line)) << At;
      const DirState S = Ref.state(Line);
      for (PuKind Who : {PuKind::Cpu, PuKind::Gpu}) {
        const bool Sharer =
            S == DirState::SharedBoth ||
            (S == DirState::ExclusiveCpu && Who == PuKind::Cpu) ||
            (S == DirState::ExclusiveGpu && Who == PuKind::Gpu);
        ASSERT_EQ(isSharer(Dir, Who, Line), Sharer) << At;
      }
      ASSERT_EQ(Dir.trackedLines(), Ref.tracked()) << At;
    }
    EXPECT_EQ(Dir.stats().Lookups, Want.Lookups) << What;
    EXPECT_EQ(Dir.stats().RemoteInvalidations, Want.RemoteInvalidations)
        << What;
    EXPECT_EQ(Dir.stats().RemoteFetches, Want.RemoteFetches) << What;
    EXPECT_EQ(Dir.stats().Messages, Want.Messages) << What;
    EXPECT_GT(Want.RemoteFetches, 0u) << What;
    // Lines never accessed read as Uncached, past the vector's end too.
    EXPECT_EQ(Dir.state(Addr(1) << 40), DirState::Uncached);
    EXPECT_FALSE(isSharer(Dir, PuKind::Cpu, Addr(1) << 40));
    Dir.onEviction(PuKind::Gpu, Addr(1) << 40);
    EXPECT_EQ(Dir.trackedLines(), Ref.tracked()) << What;
    // Every run builds a fresh machine, so a new directory tracks no line.
    Dir = Directory();
    EXPECT_EQ(Dir.trackedLines(), 0u);
    EXPECT_EQ(Dir.state(0), DirState::Uncached);
  }
}

//===----------------------------------------------------------------------===//
// TLB: the two-entry memo against a set-scan LRU, across flush and remap.
//===----------------------------------------------------------------------===//

namespace {

/// A set-scan LRU TLB holding frames: the memo-free reference.
class ReferenceTlb {
public:
  ReferenceTlb(unsigned Entries, unsigned NumWays, uint64_t PageSize)
      : Sets(Entries / NumWays), Ways(NumWays), PageBytes(PageSize),
        Slots(Entries) {}

  std::optional<Addr> lookup(Addr VAddr) {
    const uint64_t Vpn = VAddr / PageBytes;
    Slot *Set = &Slots[(Vpn % Sets) * Ways];
    for (unsigned W = 0; W != Ways; ++W)
      if (Set[W].Valid && Set[W].Vpn == Vpn) {
        Set[W].Stamp = ++Clock;
        return Set[W].Frame;
      }
    return std::nullopt;
  }

  void fill(Addr VAddr, Addr Frame) {
    const uint64_t Vpn = VAddr / PageBytes;
    Slot *Set = &Slots[(Vpn % Sets) * Ways];
    Slot *Victim = &Set[0];
    for (unsigned W = 0; W != Ways; ++W) {
      if (!Set[W].Valid) {
        Victim = &Set[W];
        break;
      }
      if (Set[W].Stamp < Victim->Stamp)
        Victim = &Set[W];
    }
    *Victim = {Vpn, Frame, ++Clock, true};
  }

  void flush() { Slots.assign(Slots.size(), Slot()); }

private:
  struct Slot {
    uint64_t Vpn = 0;
    Addr Frame = 0;
    uint64_t Stamp = 0;
    bool Valid = false;
  };
  unsigned Sets, Ways;
  uint64_t PageBytes;
  std::vector<Slot> Slots;
  uint64_t Clock = 0;
};

} // namespace

TEST(FastPathTlb, TwoEntryMemoMatchesReferenceLru) {
  struct Geometry {
    unsigned Entries, Ways;
    uint64_t PageBytes;
  };
  for (Geometry G : {Geometry{8, 2, 4096}, Geometry{64, 4, 4096},
                     Geometry{32, 4, 65536}, Geometry{4, 4, 4096}}) {
    Tlb T(G.Entries, G.Ways, G.PageBytes);
    ReferenceTlb Ref(G.Entries, G.Ways, G.PageBytes);
    XorShiftRng Rng(G.Entries + G.Ways);
    // A remap moves a page to a new frame; the owner flushes the TLB.
    uint64_t Epoch = 0;
    auto FrameOf = [&](Addr VAddr) {
      return (VAddr / G.PageBytes + Epoch * 1000003) * G.PageBytes;
    };
    // Matrix multiply's pattern: A walks forward, B strides by a row, and
    // the stream alternates between them.
    Addr A = 0x10000000, B = 0x20000000;
    const std::string What = std::to_string(G.Entries) + "x" +
                             std::to_string(G.Ways) + " pages of " +
                             std::to_string(G.PageBytes);
    for (unsigned Step = 0; Step != 40000; ++Step) {
      Addr VAddr;
      switch (Rng.nextBelow(8)) {
      case 0: // A third page, often conflicting in the set.
        VAddr = 0x10000000 + Rng.nextBelow(4 * G.Entries) * G.PageBytes;
        break;
      case 1:
        VAddr = B;
        B += 1024;
        break;
      default:
        VAddr = (Step & 1) ? B : A;
        A += 4;
        break;
      }
      if (Rng.nextBelow(2000) == 0) {
        T.flush();
        Ref.flush();
        ++Epoch;
      }
      const std::string At = What + " step " + std::to_string(Step);
      Addr Frame = ~Addr(0);
      const bool Hit = T.lookup(VAddr, Frame);
      const std::optional<Addr> Want = Ref.lookup(VAddr);
      ASSERT_EQ(Hit, Want.has_value()) << At;
      if (Hit) {
        ASSERT_EQ(Frame, *Want) << At;
      } else {
        T.fill(VAddr, FrameOf(VAddr));
        Ref.fill(VAddr, FrameOf(VAddr));
      }
    }
    EXPECT_GT(T.stats().Misses, 100u) << What;
    EXPECT_GT(T.stats().Hits, 10000u) << What;
  }
}
