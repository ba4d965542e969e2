//===- perfbench/perfbench.cpp - In-process benchmark workloads ----------===//
///
/// \file
/// One pass of an in-process benchmark workload (fig5-serial or
/// knobs-serial, see README.md), printed as one JSON object on stdout:
///
///   hetsim_perfbench <workload> [--seed N] [--setup-only] [--trace FILE]
///                    [--golden FILE] [--refs FILE]
///   hetsim_perfbench knobs-serial --bless FILE
///
/// Untraced passes run the 30-point grid through SweepRunner(1), exactly
/// like the Figure 5 bench. Traced passes time lowerKernel, lintProgram,
/// HeteroSimulator::runLowered and collectMetrics per point from here,
/// write those spans as one Chrome trace, and then replay each point's own
/// record stream through each layer's public entry point to price one
/// call. A layer is only ever timed from outside.
///
/// Every pass checks its outputs: fig5-serial renders the Figure 5 CSV and
/// compares it line by line with the golden, knobs-serial compares
/// full-precision RunResults with the blessed references, and every point
/// must pass the conservation audit.
///
/// Exit status: 0 when the pass ran (check failures are reported in the
/// JSON, not by the exit code), 2 on usage errors or unreadable inputs.
///
//===----------------------------------------------------------------------===//

#include "analysis/ProgramLinter.h"
#include "common/Config.h"
#include "common/Random.h"
#include "core/Experiments.h"
#include "gpu/Coalescer.h"
#include "interconnect/MeshNoc.h"
#include "interconnect/RingBus.h"
#include "obs/Json.h"
#include "trace/ComputeBlock.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace hetsim;

namespace {

double monotonicSeconds() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

double cpuSeconds() {
  rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  auto Seconds = [](const timeval &T) {
    return double(T.tv_sec) + double(T.tv_usec) * 1e-6;
  };
  return Seconds(Usage.ru_utime) + Seconds(Usage.ru_stime);
}

bool readFile(const std::string &Path, std::string &Text) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Text = Buffer.str();
  return true;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

//===-- Workloads ---------------------------------------------------------===//

enum class Workload { Fig5, Knobs };

/// One knobs-serial override. Each changes how the memory layers are used
/// (and so each changes the simulated results of its points).
struct Knob {
  const char *Name;
  const char *File;  ///< Shipped config file, or nullptr.
  const char *Key;   ///< Single override when File is nullptr.
  const char *Value;
};

const Knob RotatedKnobs[] = {
    {"prefetch", "configs/prefetch.cfg", nullptr, nullptr},
    {"small_pages", "configs/small_pages.cfg", nullptr, nullptr},
    {"small_llc", nullptr, "mem.l3_bytes", "262144"},
    {"mesh", nullptr, "mem.noc", "mesh"},
};
constexpr unsigned NumRotations =
    sizeof(RotatedKnobs) / sizeof(RotatedKnobs[0]);

/// The interleaved path materializes whole traces, and which points do so
/// first decides the peak RSS of the pass (658-1126 MB over ten shuffled
/// seeds). So it stays on the last system, and knobs-serial keeps grid
/// order; the seed rotates only the knobs above.
const Knob InterleavedKnob = {"interleaved", nullptr,
                              "sys.interleaved_contention", "true"};

struct BenchPoint {
  SystemConfig Config;
  KernelId Kernel = KernelId::Reduction;
  std::string Knob; ///< "default" on fig5-serial.
};

std::string pointLabel(const BenchPoint &P) {
  return P.Config.Name + "/" + P.Knob + "/" + kernelName(P.Kernel);
}

/// The 30-point grid in presentation order (system-major, as
/// runCaseStudies submits it). On knobs-serial, the last system gets the
/// interleaved knob and every other system S gets rotated knob
/// (S + Rotation) % NumRotations, baked in through forCaseStudy.
bool buildGrid(Workload W, unsigned Rotation, std::vector<BenchPoint> &Points) {
  const std::vector<CaseStudy> &Studies = allCaseStudies();
  for (size_t S = 0; S != Studies.size(); ++S) {
    ConfigStore Store;
    std::string KnobName = "default";
    if (W == Workload::Knobs) {
      const Knob &K = S + 1 == Studies.size()
                          ? InterleavedKnob
                          : RotatedKnobs[(S + Rotation) % NumRotations];
      if (K.File && !Store.loadFile(K.File)) {
        std::fprintf(stderr, "error: cannot read %s\n", K.File);
        return false;
      }
      if (!K.File)
        Store.set(K.Key, K.Value);
      KnobName = K.Name;
    }
    SystemConfig Config = SystemConfig::forCaseStudy(Studies[S], Store);
    for (KernelId Kernel : allKernels())
      Points.push_back({Config, Kernel, KnobName});
  }
  return true;
}

/// The order the points are submitted in: grid order on knobs-serial (see
/// InterleavedKnob), else a permutation drawn from \p Seed. Results are
/// put back in grid order before any check.
std::vector<size_t> submissionOrder(Workload W, size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  if (W == Workload::Knobs)
    return Order;
  XorShiftRng Rng(Seed * 0x9E3779B97F4A7C15ull + 1);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[size_t(Rng.next() % I)]);
  return Order;
}

struct PointOutcome {
  RunResult Result;
  MetricsSnapshot Metrics;
};

struct PassClock {
  double Ready = 0; ///< Monotonic seconds when the first point starts.
  double Done = 0;  ///< Monotonic seconds when the last point finished.
  double CpuSeconds = 0;
};

//===-- Output checks -----------------------------------------------------===//

/// Full-precision rendering of everything a run reports (hex floats, so
/// equality is bit equality).
std::string serializeResult(const RunResult &R) {
  std::string Out;
  char Buffer[64];
  auto Float = [&](double V) {
    std::snprintf(Buffer, sizeof(Buffer), " %a", V);
    Out += Buffer;
  };
  auto Count = [&](uint64_t V) {
    std::snprintf(Buffer, sizeof(Buffer), " %llu",
                  static_cast<unsigned long long>(V));
    Out += Buffer;
  };
  Float(R.Time.SequentialNs);
  Float(R.Time.ParallelNs);
  Float(R.Time.CommunicationNs);
  for (unsigned P = 0; P != NumRunPhases; ++P)
    Float(R.Phases.Ns[P]);
  for (const SegmentResult *S : {&R.CpuTotal, &R.GpuTotal}) {
    Count(S->Cycles);
    Count(S->Insts);
    Count(S->MemAccesses);
    Count(S->MemLatencySum);
    Count(S->MemLatencyMax);
    Count(S->BranchMispredicts);
    Count(S->ICacheMisses);
    Count(S->StoreForwards);
    Count(S->PageFaults);
    Count(S->PageFaultCycles);
  }
  Count(R.TransferredBytes);
  Count(R.TransferCount);
  Count(R.PageFaults);
  Count(R.OwnershipActions);
  Float(R.PushNs);
  Count(R.CommSourceLines);
  return Out.substr(1);
}

std::string referenceKey(const BenchPoint &P) {
  return P.Config.Name + "\t" + P.Knob + "\t" + kernelName(P.Kernel);
}

/// Records point \p I as failed with a one-line reason.
struct Failures {
  std::set<size_t> Points;
  std::vector<std::string> Messages;

  void add(size_t I, const std::string &Why) {
    Points.insert(I);
    Messages.push_back(Why);
  }
};

void checkConservation(const std::vector<BenchPoint> &Points,
                       const std::vector<PointOutcome> &Out, Failures &F) {
  for (size_t I = 0; I != Points.size(); ++I)
    if (Out[I].Metrics.get("run.conservation_ok") != 1.0)
      F.add(I, pointLabel(Points[I]) + ": conservation audit failed");
}

/// fig5-serial: the rendered Figure 5 CSV must equal the golden. Row I of
/// the table is point I of the grid.
void checkFigure5(const std::vector<BenchPoint> &Points,
                  const std::vector<PointOutcome> &Out,
                  const std::string &GoldenPath, Failures &F) {
  std::vector<ExperimentRow> Rows;
  for (size_t I = 0; I != Points.size(); ++I) {
    ExperimentRow Row;
    Row.System = Points[I].Config.Name;
    Row.Kernel = Points[I].Kernel;
    Row.Result = Out[I].Result;
    Rows.push_back(std::move(Row));
  }
  std::vector<std::string> Got = splitLines(renderFigure5(Rows).renderCsv());
  std::string GoldenText;
  std::vector<std::string> Want;
  if (readFile(GoldenPath, GoldenText))
    Want = splitLines(GoldenText);
  bool Shaped = Want.size() == Points.size() + 1 && Got.size() == Want.size() &&
                Got[0] == Want[0];
  for (size_t I = 0; I != Points.size(); ++I)
    if (!Shaped || Got[I + 1] != Want[I + 1])
      F.add(I, pointLabel(Points[I]) + ": Figure 5 row differs from " +
                   GoldenPath);
}

/// knobs-serial: every RunResult must equal its blessed reference.
void checkReferences(const std::vector<BenchPoint> &Points,
                     const std::vector<PointOutcome> &Out,
                     const std::string &RefsPath, Failures &F) {
  std::map<std::string, std::string> Refs;
  std::string Text;
  if (readFile(RefsPath, Text))
    for (const std::string &Line : splitLines(Text)) {
      size_t Cut = Line.rfind('\t');
      if (Cut != std::string::npos)
        Refs[Line.substr(0, Cut)] = Line.substr(Cut + 1);
    }
  for (size_t I = 0; I != Points.size(); ++I) {
    auto It = Refs.find(referenceKey(Points[I]));
    if (It == Refs.end())
      F.add(I, pointLabel(Points[I]) + ": no reference in " + RefsPath);
    else if (It->second != serializeResult(Out[I].Result))
      F.add(I, pointLabel(Points[I]) + ": RunResult differs from " + RefsPath);
  }
}

//===-- Layer replay (traced passes) --------------------------------------===//

/// Host time spent in one layer's entry point and the calls it covered.
struct LayerClock {
  double Seconds = 0;
  uint64_t Calls = 0;

  double nsPerCall() const { return Calls == 0 ? 0.0 : 1e9 * Seconds / double(Calls); }
};

struct MemOp {
  Addr Address;
  uint32_t Bytes;
  bool IsWrite;
  PuKind Pu;
};

/// Records replayed per PU per point, and memory operations kept for the
/// single-layer replays. Enough for a stable ns/call; small enough that a
/// traced pass stays within a few seconds of an untraced one.
constexpr uint64_t ReplayRecordsPerPu = 1u << 19;
constexpr size_t ReplayMemOps = 1u << 18;

struct LayerReplay {
  LayerClock Gen, CpuLoop, GpuLoop, Walk, Translate, Caches, Noc, Dram;
  double Records = 0; ///< Every record of every replayed program.
  uint64_t Sink = 0;  ///< Keeps timed results observable.
};

template <typename Fn> double timeIt(Fn &&Body) {
  double Start = monotonicSeconds();
  Body();
  return monotonicSeconds() - Start;
}

void mapProgram(MemorySystem &Mem, const LoweredProgram &Program) {
  for (const DataSegment &Segment : Program.Place.CpuLayout.segments())
    Mem.mapRange(PuKind::Cpu, Segment.Base, Segment.Bytes);
  for (const DataSegment &Segment : Program.Place.GpuLayout.segments())
    Mem.mapRange(PuKind::Gpu, Segment.Base, Segment.Bytes);
}

/// Runs up to \p Budget records of \p Trace through \p Core on pre-expanded
/// windows, timing generation and the core loop apart, and keeps the
/// global memory operations for the single-layer replays.
template <typename CoreT>
void replayTrace(const SharedTrace &Trace, PuKind Pu, CoreT &Core,
                 Cycle &Now, uint64_t &Budget, LayerClock &CoreClock,
                 LayerReplay &R, std::vector<MemOp> &Ops) {
  std::vector<Addr> Lines;
  auto Consume = [&](const TraceRecord *Records, size_t Count) {
    Count = size_t(std::min<uint64_t>(Count, Budget));
    SegmentResult Seg;
    CoreClock.Seconds += timeIt([&] { Seg = Core.run(Records, Count, Now); });
    CoreClock.Calls += Count;
    Now += Seg.Cycles;
    Budget -= Count;
    for (size_t I = 0; I != Count && Ops.size() < ReplayMemOps; ++I) {
      const TraceRecord &Rec = Records[I];
      if (!isGlobalMemoryOp(Rec.Op))
        continue;
      bool Write = isStoreOp(Rec.Op);
      if (Pu == PuKind::Cpu) {
        Ops.push_back({Rec.MemAddr, std::max<uint32_t>(Rec.MemBytes, 1), Write,
                       Pu});
        continue;
      }
      coalesceWarpAccess(Rec, Lines);
      for (Addr Line : Lines)
        Ops.push_back({Line, CacheLineBytes, Write, Pu});
    }
  };

  const BlockTrace *Block = Trace.blocks();
  if (!Block || (Block->kind() != BlockTrace::Kind::ComputeGen &&
                 Block->kind() != BlockTrace::Kind::SerialGen)) {
    const TraceBuffer &Buffer = Trace.buffer();
    if (Budget != 0 && !Buffer.empty())
      Consume(Buffer.records().data(), Buffer.size());
    return;
  }
  // A fresh block from the same recipe, so every window is generated here
  // rather than served from a buffer an earlier run left behind.
  const KernelId Kernel = Block->generator().kernel();
  std::unique_ptr<BlockTrace> Fresh =
      Block->kind() == BlockTrace::Kind::ComputeGen
          ? std::make_unique<BlockTrace>(Kernel, Block->request(),
                                         Block->layout())
          : std::make_unique<BlockTrace>(Kernel, Block->request().InstCount,
                                         Block->serialSeed(), Block->layout());
  BlockExpander Expander(*Fresh);
  TraceBuffer Window;
  while (Budget != 0 && !Expander.done()) {
    uint64_t Made = 0;
    R.Gen.Seconds += timeIt([&] { Made = Expander.next(Window); });
    R.Gen.Calls += Made;
    Consume(Window.records().data(), Window.size());
  }
}

/// Prices one call of every layer on point \p Program's own stream.
void replayPoint(const SystemConfig &Config, const LoweredProgram &Program,
                 LayerReplay &R) {
  std::vector<MemOp> Ops;
  {
    MemorySystem Mem(Config.Hier);
    mapProgram(Mem, Program);
    CpuCore Cpu(Config.Cpu, Mem);
    GpuCore Gpu(Config.Gpu, Mem);
    Cycle CpuNow = 0, GpuNow = 0;
    uint64_t CpuBudget = ReplayRecordsPerPu, GpuBudget = ReplayRecordsPerPu;
    for (const ExecStep &Step : Program.Steps) {
      R.Records += double(Step.CpuTrace.size() + Step.GpuTrace.size());
      if (Step.Kind != ExecKind::SerialCompute &&
          Step.Kind != ExecKind::ParallelCompute)
        continue;
      replayTrace(Step.CpuTrace, PuKind::Cpu, Cpu, CpuNow, CpuBudget, R.CpuLoop,
                  R, Ops);
      replayTrace(Step.GpuTrace, PuKind::Gpu, Gpu, GpuNow, GpuBudget, R.GpuLoop,
                  R, Ops);
    }
  }
  if (Ops.empty())
    return;
  const uint64_t N = Ops.size();
  const MemHierConfig &Hier = Config.Hier;

  // MemorySystem::access: the whole walk, issued one cycle apart per PU.
  {
    MemorySystem Mem(Hier);
    mapProgram(Mem, Program);
    Cycle Now[2] = {0, 0};
    R.Walk.Seconds += timeIt([&] {
      for (const MemOp &Op : Ops)
        R.Sink += Mem.access(Op.Pu, Op.Address, Op.Bytes, Op.IsWrite,
                             Now[unsigned(Op.Pu)]++)
                      .Latency;
    });
    R.Walk.Calls += N;
  }
  // Tlb::lookup: translation, with each PU's geometry.
  {
    Tlb CpuTlb(Hier.CpuTlbEntries, Hier.TlbWays, Hier.CpuPageBytes);
    Tlb GpuTlb(Hier.GpuTlbEntries, Hier.TlbWays, Hier.GpuPageBytes);
    R.Translate.Seconds += timeIt([&] {
      for (const MemOp &Op : Ops)
        R.Sink += (Op.Pu == PuKind::Cpu ? CpuTlb : GpuTlb).lookup(Op.Address);
    });
    R.Translate.Calls += N;
  }
  // Cache::access: each level sees the stream of the PUs it serves.
  {
    Cache CpuL1(Hier.CpuL1), CpuL2(Hier.CpuL2), GpuL1(Hier.GpuL1), L3(Hier.L3);
    R.Caches.Seconds += timeIt([&] {
      for (const MemOp &Op : Ops) {
        if (Op.Pu == PuKind::Cpu) {
          R.Sink += CpuL1.access(Op.Address, Op.IsWrite).Hit;
          R.Sink += CpuL2.access(Op.Address, Op.IsWrite).Hit;
        } else {
          R.Sink += GpuL1.access(Op.Address, Op.IsWrite).Hit;
        }
        R.Sink += L3.access(Op.Address, Op.IsWrite).Hit;
      }
    });
    for (const MemOp &Op : Ops)
      R.Caches.Calls += Op.Pu == PuKind::Cpu ? 3 : 2;
  }
  // Interconnect::traverse: requester stop to the line's L3 tile.
  {
    std::unique_ptr<Interconnect> Noc;
    if (Hier.UseMeshNoc)
      Noc = std::make_unique<MeshNoc>(Hier.Mesh);
    else
      Noc = std::make_unique<RingBus>(Hier.Ring);
    Cycle Now = 0;
    R.Noc.Seconds += timeIt([&] {
      for (const MemOp &Op : Ops) {
        unsigned From = Op.Pu == PuKind::Cpu ? ring::CpuStop : ring::GpuStop;
        R.Sink += Noc->traverse(From, Noc->tileStopFor(Op.Address), Now++);
      }
    });
    R.Noc.Calls += N;
  }
  // DramSystem::access: one line request per operation.
  {
    DramSystem Dram(Hier.Dram);
    Cycle Now = 0;
    R.Dram.Seconds += timeIt([&] {
      for (const MemOp &Op : Ops)
        R.Sink += Dram.access(Op.Address & ~Addr(CacheLineBytes - 1), Now++,
                              Op.IsWrite);
    });
    R.Dram.Calls += N;
  }
}

/// Sum of metric \p Key over all points.
double sumMetric(const std::vector<PointOutcome> &Out, const std::string &Key) {
  double Sum = 0;
  for (const PointOutcome &O : Out)
    Sum += O.Metrics.get(Key);
  return Sum;
}

double ratio(double Num, double Den) { return Den == 0 ? 0.0 : Num / Den; }

struct SpanSums {
  double Lower = 0, Lint = 0, Simulate = 0, Collect = 0;
  std::vector<double> PointSeconds;
};

/// The per-layer metrics of a traced pass (names as in README.md).
std::map<std::string, double>
layerMetrics(const std::vector<BenchPoint> &Points,
             const std::vector<PointOutcome> &Out, const SpanSums &Spans,
             const LayerReplay &R) {
  std::map<std::string, double> M;
  auto Sum = [&](const std::string &Key) { return sumMetric(Out, Key); };

  double CpuAccesses = Sum("mem.cpu_accesses");
  double GpuAccesses = Sum("mem.gpu_accesses");
  double Accesses = CpuAccesses + GpuAccesses;
  M["memory.accesses"] = Accesses;
  M["memory.ns_per_access"] = R.Walk.nsPerCall();
  M["memory.translate_ns"] = R.Translate.nsPerCall();
  M["memory.tlb_miss_rate"] =
      ratio(Sum("tlb.cpu.misses") + Sum("tlb.gpu.misses"),
            Sum("tlb.cpu.lookups") + Sum("tlb.gpu.lookups"));

  double CacheAccesses = 0;
  for (const char *Level : {"cpu_l1", "cpu_l2", "gpu_l1", "l3"}) {
    std::string Prefix = std::string("cache.") + Level;
    double A = Sum(Prefix + ".accesses");
    CacheAccesses += A;
    M[Prefix + ".accesses"] = A;
    M[Prefix + ".hit_rate"] = ratio(Sum(Prefix + ".hits"), A);
  }
  M["cache.ns_per_access"] = R.Caches.nsPerCall();
  M["cache.est_s"] = CacheAccesses * R.Caches.nsPerCall() * 1e-9;

  double Messages = Sum("noc.messages");
  M["interconnect.messages"] = Messages;
  M["interconnect.ns_per_message"] = R.Noc.nsPerCall();
  M["interconnect.est_s"] = Messages * R.Noc.nsPerCall() * 1e-9;

  double Requests = 0, RowHits = 0, RowMisses = 0;
  for (const char *Dev : {"dram.cpu", "dram.gpu"}) {
    std::string Prefix = Dev;
    Requests += Sum(Prefix + ".reads") + Sum(Prefix + ".writes");
    RowHits += Sum(Prefix + ".row_hits");
    RowMisses += Sum(Prefix + ".row_misses");
  }
  M["dram.requests"] = Requests;
  M["dram.row_hit_rate"] = ratio(RowHits, RowHits + RowMisses);
  M["dram.ns_per_request"] = R.Dram.nsPerCall();
  M["dram.est_s"] = Requests * R.Dram.nsPerCall() * 1e-9;

  // Exclusive estimates: the walk minus the layers it calls, and each core
  // loop minus the walk it drives, so the est_s values add up.
  double WalkS = Accesses * R.Walk.nsPerCall() * 1e-9;
  M["memory.est_s"] = std::max(0.0, WalkS - M["cache.est_s"] -
                                        M["interconnect.est_s"] -
                                        M["dram.est_s"]);
  double CpuInsts = Sum("run.cpu.insts"), GpuInsts = Sum("run.gpu.insts");
  M["cpu.insts"] = CpuInsts;
  M["cpu.ns_per_inst"] = R.CpuLoop.nsPerCall();
  M["cpu.est_s"] = std::max(0.0, CpuInsts * R.CpuLoop.nsPerCall() * 1e-9 -
                                     CpuAccesses * R.Walk.nsPerCall() * 1e-9);
  M["gpu.insts"] = GpuInsts;
  M["gpu.ns_per_inst"] = R.GpuLoop.nsPerCall();
  M["gpu.est_s"] = std::max(0.0, GpuInsts * R.GpuLoop.nsPerCall() * 1e-9 -
                                     GpuAccesses * R.Walk.nsPerCall() * 1e-9);

  M["trace.records"] = R.Records;
  M["trace.ns_per_record"] = R.Gen.nsPerCall();
  M["trace.gen_s"] = R.Records * R.Gen.nsPerCall() * 1e-9;

  std::vector<double> PointS = Spans.PointSeconds;
  std::sort(PointS.begin(), PointS.end());
  M["core.points"] = double(Points.size());
  M["core.point_s.p50"] = PointS.empty() ? 0.0 : PointS[PointS.size() / 2];
  M["core.point_s.max"] = PointS.empty() ? 0.0 : PointS.back();
  M["core.lower_s"] = Spans.Lower;
  M["core.simulate_s"] = Spans.Simulate;
  M["analysis.lint_s"] = Spans.Lint;
  M["obs.collect_s"] = Spans.Collect;

  M["comm.transfers"] = Sum("run.transfers");
  M["comm.bytes"] = Sum("run.transfer_bytes");

  double EstS = M["memory.est_s"] + M["cache.est_s"] +
                M["interconnect.est_s"] + M["dram.est_s"] + M["cpu.est_s"] +
                M["gpu.est_s"] + M["trace.gen_s"];
  M["bench.est_over_measured"] = ratio(EstS, Spans.Simulate);
  return M;
}

//===-- Passes ------------------------------------------------------------===//

/// Untraced: the grid through SweepRunner(1), as the Figure 5 bench runs it.
void runUntraced(const std::vector<BenchPoint> &Points,
                 const std::vector<size_t> &Order, bool SetupOnly,
                 std::vector<PointOutcome> &Out, PassClock &Clock) {
  std::vector<SweepPoint> Sweep;
  Sweep.reserve(Order.size());
  for (size_t I : Order)
    Sweep.emplace_back(Points[I].Config, Points[I].Kernel);
  SweepRunner Runner(1);
  Clock.Ready = monotonicSeconds();
  if (SetupOnly)
    return;
  double Cpu0 = cpuSeconds();
  std::vector<RunResult> Results = Runner.run(Sweep);
  Clock.Done = monotonicSeconds();
  Clock.CpuSeconds = cpuSeconds() - Cpu0;
  Out.resize(Points.size());
  for (size_t J = 0; J != Order.size(); ++J) {
    Out[Order[J]].Result = std::move(Results[J]);
    Out[Order[J]].Metrics = Runner.metrics()[J];
  }
}

struct Span {
  const char *Name;
  unsigned Lane;
  double Start, End;
  std::string Label;
};

/// Traced: the same points one by one, with a span around each call.
void runTraced(const std::vector<BenchPoint> &Points,
               const std::vector<size_t> &Order, std::vector<PointOutcome> &Out,
               PassClock &Clock, SpanSums &Sums, std::vector<Span> &Spans,
               Failures &F) {
  Out.resize(Points.size());
  Clock.Ready = monotonicSeconds();
  double Cpu0 = cpuSeconds();
  for (size_t I : Order) {
    const BenchPoint &P = Points[I];
    double T0 = monotonicSeconds();
    LoweredProgram Program = lowerKernel(P.Kernel, P.Config);
    double T1 = monotonicSeconds();
    LintReport Lint = lintProgram(Program, P.Config);
    double T2 = monotonicSeconds();
    HeteroSimulator Simulator(P.Config);
    Out[I].Result = Simulator.runLowered(Program);
    double T3 = monotonicSeconds();
    Out[I].Metrics = Simulator.collectMetrics(Out[I].Result);
    double T4 = monotonicSeconds();

    if (Lint.errorCount() != 0)
      F.add(I, pointLabel(P) + ": lintProgram reported errors");
    std::string Label = pointLabel(P);
    Spans.push_back({"point", 0, T0, T4, Label});
    Spans.push_back({"lowerKernel", 1, T0, T1, Label});
    Spans.push_back({"lintProgram", 2, T1, T2, Label});
    Spans.push_back({"runLowered", 3, T2, T3, Label});
    Spans.push_back({"collectMetrics", 4, T3, T4, Label});
    Sums.Lower += T1 - T0;
    Sums.Lint += T2 - T1;
    Sums.Simulate += T3 - T2;
    Sums.Collect += T4 - T3;
    Sums.PointSeconds.push_back(T4 - T0);
  }
  Clock.Done = monotonicSeconds();
  Clock.CpuSeconds = cpuSeconds() - Cpu0;
}

/// The spans as one Chrome trace-event document (the obs/TraceEvents
/// layout: metadata rows, then complete "X" events in microseconds).
bool writeChromeTrace(const std::string &Path, const std::string &Process,
                      double Origin, const std::vector<Span> &Spans) {
  static const char *Lanes[] = {"point", "lowerKernel", "lintProgram",
                                "runLowered", "collectMetrics"};
  JsonWriter W;
  W.beginObject();
  W.beginArray("traceEvents");
  W.beginObject();
  W.value("ph", "M");
  W.value("pid", 1);
  W.value("tid", 0);
  W.value("name", "process_name");
  W.beginObject("args");
  W.value("name", Process);
  W.endObject();
  W.endObject();
  for (unsigned T = 0; T != 5; ++T) {
    W.beginObject();
    W.value("ph", "M");
    W.value("pid", 1);
    W.value("tid", int(T));
    W.value("name", "thread_name");
    W.beginObject("args");
    W.value("name", Lanes[T]);
    W.endObject();
    W.endObject();
  }
  for (const Span &S : Spans) {
    W.beginObject();
    W.value("ph", "X");
    W.value("pid", 1);
    W.value("tid", int(S.Lane));
    W.value("name", S.Name);
    W.value("cat", "perfbench");
    W.value("ts", (S.Start - Origin) * 1e6);
    W.value("dur", (S.End - S.Start) * 1e6);
    W.beginObject("args");
    W.value("point", S.Label);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.value("displayTimeUnit", "ns");
  W.beginObject("otherData");
  W.value("events", uint64_t(Spans.size()));
  W.value("dropped", uint64_t(0));
  W.endObject();
  W.endObject();
  return writeTextFile(Path, W.take() + "\n");
}

/// Runs every knob rotation, writes the references, and reports how many
/// points each (system, knob) pair moved away from the default grid.
int bless(const std::string &Path) {
  std::vector<BenchPoint> Default;
  if (!buildGrid(Workload::Fig5, 0, Default))
    return 2;
  auto RunAll = [](const std::vector<BenchPoint> &Points) {
    std::vector<SweepPoint> Sweep;
    for (const BenchPoint &P : Points)
      Sweep.emplace_back(P.Config, P.Kernel);
    SweepRunner Runner(0);
    return Runner.run(Sweep);
  };
  std::vector<RunResult> Base = RunAll(Default);
  std::set<std::string> Lines; // The pinned knob repeats in every rotation.
  std::map<std::string, unsigned> Moved;
  for (unsigned Rotation = 0; Rotation != NumRotations; ++Rotation) {
    std::vector<BenchPoint> Points;
    if (!buildGrid(Workload::Knobs, Rotation, Points))
      return 2;
    std::vector<RunResult> Results = RunAll(Points);
    for (size_t I = 0; I != Points.size(); ++I) {
      std::string Serial = serializeResult(Results[I]);
      if (Lines.insert(referenceKey(Points[I]) + "\t" + Serial).second)
        Moved[Points[I].Config.Name + "/" + Points[I].Knob] +=
            Serial != serializeResult(Base[I]);
    }
  }
  std::string Text;
  for (const std::string &Line : Lines)
    Text += Line + "\n";
  if (!writeTextFile(Path, Text)) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return 2;
  }
  bool AllMoved = true;
  for (const auto &KV : Moved) {
    std::fprintf(stderr, "%-28s %u/%zu points differ from the default\n",
                 KV.first.c_str(), KV.second, allKernels().size());
    AllMoved &= KV.second != 0;
  }
  std::printf("blessed %zu references into %s\n", Lines.size(), Path.c_str());
  return AllMoved ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: hetsim_perfbench fig5-serial|knobs-serial [--seed N] "
               "[--setup-only] [--trace FILE] [--golden FILE] [--refs FILE]\n"
               "       hetsim_perfbench knobs-serial --bless FILE\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Name = Argv[1];
  Workload W;
  if (Name == "fig5-serial")
    W = Workload::Fig5;
  else if (Name == "knobs-serial")
    W = Workload::Knobs;
  else
    return usage();

  uint64_t Seed = 1;
  bool SetupOnly = false;
  std::string TracePath, BlessPath;
  std::string GoldenPath = "refs/golden/fig5.csv";
  std::string RefsPath = "perfbench/refs/knobs.txt";
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    bool HasValue = I + 1 < Argc;
    if (Arg == "--setup-only") {
      SetupOnly = true;
    } else if (Arg == "--seed" && HasValue) {
      char *End = nullptr;
      Seed = std::strtoull(Argv[++I], &End, 10);
      if (*End != '\0')
        return usage();
    } else if (Arg == "--trace" && HasValue) {
      TracePath = Argv[++I];
    } else if (Arg == "--golden" && HasValue) {
      GoldenPath = Argv[++I];
    } else if (Arg == "--refs" && HasValue) {
      RefsPath = Argv[++I];
    } else if (Arg == "--bless" && HasValue) {
      BlessPath = Argv[++I];
    } else {
      return usage();
    }
  }
  if (!BlessPath.empty())
    return W == Workload::Knobs ? bless(BlessPath) : usage();

  unsigned Rotation = unsigned(Seed % NumRotations);
  std::vector<BenchPoint> Points;
  if (!buildGrid(W, Rotation, Points))
    return 2;
  std::vector<size_t> Order = submissionOrder(W, Points.size(), Seed);

  std::vector<PointOutcome> Out;
  PassClock Clock;
  SpanSums Sums;
  std::vector<Span> Spans;
  Failures F;
  const bool Traced = !TracePath.empty();
  if (Traced && !SetupOnly)
    runTraced(Points, Order, Out, Clock, Sums, Spans, F);
  else
    runUntraced(Points, Order, SetupOnly, Out, Clock);

  JsonWriter J;
  J.beginObject();
  J.value("workload", Name);
  J.value("seed", Seed);
  J.value("t_ready", Clock.Ready);
  if (!SetupOnly) {
    J.value("t_done", Clock.Done);
    J.value("wall_s", Clock.Done - Clock.Ready);
    J.value("cpu_s", Clock.CpuSeconds);
    J.value("points", uint64_t(Points.size()));
    if (W == Workload::Knobs)
      J.value("knob_rotation", uint64_t(Rotation));

    checkConservation(Points, Out, F);
    if (W == Workload::Fig5)
      checkFigure5(Points, Out, GoldenPath, F);
    else
      checkReferences(Points, Out, RefsPath, F);
    J.value("failed", uint64_t(F.Points.size()));
    J.beginArray("failures");
    for (const std::string &Message : F.Messages)
      J.value(Message);
    J.endArray();

    if (Traced) {
      if (!writeChromeTrace(TracePath, "hetsim_perfbench " + Name,
                            Clock.Ready, Spans))
        std::fprintf(stderr, "warning: cannot write %s\n", TracePath.c_str());
      // Lowered again rather than kept from the traced sweep: holding every
      // program alive there would keep trace buffers alive that an
      // untraced sweep frees, and make the traced wall unrepresentative.
      LayerReplay Replay;
      for (const BenchPoint &P : Points)
        replayPoint(P.Config, lowerKernel(P.Kernel, P.Config), Replay);
      J.beginObject("layers");
      for (const auto &KV : layerMetrics(Points, Out, Sums, Replay))
        J.value(KV.first, KV.second);
      J.endObject();
      J.value("replay_sink", Replay.Sink);
    }
  }
  J.endObject();
  std::printf("%s\n", J.take().c_str());
  return 0;
}
