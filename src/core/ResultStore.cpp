//===- core/ResultStore.cpp -----------------------------------------------===//

#include "core/ResultStore.h"

#include "common/Log.h"
#include "trace/ComputeBlock.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace hetsim;

namespace {

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

/// FNV-1a folding helper. Every field is widened to a fixed 8-byte word
/// before hashing, so the fingerprint is independent of struct padding
/// and field widths and only ever changes when a value (or the explicit
/// enumeration order below) does.
class Fingerprint {
public:
  Fingerprint &word(uint64_t Value) {
    for (unsigned I = 0; I != 8; ++I) {
      Hash ^= (Value >> (8 * I)) & 0xffu;
      Hash *= 1099511628211ull;
    }
    return *this;
  }

  Fingerprint &real(double Value) {
    uint64_t Bits = 0;
    static_assert(sizeof(Bits) == sizeof(Value));
    std::memcpy(&Bits, &Value, sizeof(Bits));
    return word(Bits);
  }

  Fingerprint &text(const std::string &Value) {
    word(Value.size());
    for (char C : Value) {
      Hash ^= static_cast<unsigned char>(C);
      Hash *= 1099511628211ull;
    }
    return *this;
  }

  template <typename E> Fingerprint &kind(E Value) {
    return word(static_cast<uint64_t>(Value));
  }

  uint64_t take() const { return Hash; }

private:
  uint64_t Hash = 14695981039346656037ull;
};

void foldCache(Fingerprint &F, const CacheConfig &C) {
  F.text(C.Name)
      .word(C.SizeBytes)
      .word(C.Ways)
      .word(C.LineBytes)
      .word(C.HitLatency)
      .kind(C.Replacement)
      .word(C.MaxExplicitWays);
}

void foldTrace(Fingerprint &F, const SharedTrace &Trace) {
  const BlockTrace *Block = Trace.blocks();
  if (!Block) {
    F.word(0);
    return;
  }
  // The recipe determines the stream exactly (window concatenation equals
  // materialization), so hash the generator and its inputs instead of
  // expanding millions of records.
  const GenRequest &Req = Block->request();
  F.text(Block->generator().name())
      .kind(Block->kind())
      .kind(Req.Pu)
      .kind(Req.Split)
      .word(Req.InstCount)
      .word(Req.Seed)
      .word(Block->layout().fingerprint());
}

//===----------------------------------------------------------------------===//
// Entry serialization
//===----------------------------------------------------------------------===//

void writeSegment(std::FILE *File, const char *Tag, const SegmentResult &S) {
  std::fprintf(File,
               "%s %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
               " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
               "\n",
               Tag, S.Cycles, S.Insts, S.MemAccesses, S.MemLatencySum,
               S.MemLatencyMax, S.BranchMispredicts, S.ICacheMisses,
               S.StoreForwards, S.PageFaults, S.PageFaultCycles);
}

bool readSegment(std::FILE *File, const char *Tag, SegmentResult &S) {
  char Expect[16];
  std::snprintf(Expect, sizeof(Expect), "%s", Tag);
  char Got[16];
  if (std::fscanf(File, "%15s", Got) != 1 || std::strcmp(Got, Expect) != 0)
    return false;
  return std::fscanf(File,
                     "%" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                     " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                     " %" SCNu64 " %" SCNu64,
                     &S.Cycles, &S.Insts, &S.MemAccesses, &S.MemLatencySum,
                     &S.MemLatencyMax, &S.BranchMispredicts, &S.ICacheMisses,
                     &S.StoreForwards, &S.PageFaults,
                     &S.PageFaultCycles) == 10;
}

} // namespace

uint64_t hetsim::hashSystemConfig(const SystemConfig &Config) {
  Fingerprint F;
  F.text(Config.Name)
      .kind(Config.AddrSpace)
      .kind(Config.Connection)
      .kind(Config.Locality.CpuPrivate)
      .kind(Config.Locality.GpuPrivate)
      .kind(Config.Locality.Shared)
      .word(Config.AsyncCopies ? 1 : 0)
      .word(Config.UseOwnership ? 1 : 0)
      .word(Config.FirstTouchFaults ? 1 : 0)
      .word(Config.IdealComm ? 1 : 0)
      .word(Config.InterleavedContention ? 1 : 0)
      .word(Config.ContentionSliceRecords)
      .real(Config.CpuWorkFraction);

  const CpuConfig &Cpu = Config.Cpu;
  F.word(Cpu.FetchWidth)
      .word(Cpu.IssueWidth)
      .word(Cpu.RetireWidth)
      .word(Cpu.RobEntries)
      .word(Cpu.MispredictPenalty)
      .word(Cpu.GshareTableBits)
      .word(Cpu.L1IMissPenalty);

  const GpuConfig &Gpu = Config.Gpu;
  F.word(Gpu.IssueWidth)
      .word(Gpu.BranchStall)
      .word(Gpu.DivergentBranchFactor)
      .word(Gpu.MaxPendingLoads)
      .word(Gpu.NumWarps)
      .word(Gpu.WarpChunkRecords);

  const MemHierConfig &Hier = Config.Hier;
  foldCache(F, Hier.CpuL1);
  foldCache(F, Hier.CpuL2);
  foldCache(F, Hier.GpuL1);
  foldCache(F, Hier.L3);
  F.word(Hier.Dram.Channels)
      .word(Hier.Dram.BanksPerChannel)
      .word(Hier.Dram.RowBytes)
      .word(Hier.Dram.RowHitLatency)
      .word(Hier.Dram.RowMissLatency)
      .word(Hier.Dram.BusCyclesPerLine)
      .word(Hier.Dram.MaxQueueDelay)
      .word(Hier.Ring.NumStops)
      .word(Hier.Ring.HopLatency)
      .word(Hier.Ring.InjectOccupancy)
      .word(Hier.Ring.MaxQueueDelay)
      .word(Hier.UseMeshNoc ? 1 : 0)
      .word(Hier.Mesh.Width)
      .word(Hier.Mesh.Height)
      .word(Hier.Mesh.HopLatency)
      .word(Hier.Mesh.InjectOccupancy)
      .word(Hier.Mesh.MaxQueueDelay)
      .word(Hier.GpuSharesL3 ? 1 : 0)
      .word(Hier.SeparateGpuDram ? 1 : 0)
      .word(Hier.HwCoherence ? 1 : 0)
      .word(Hier.TlbMissPenalty)
      .word(Hier.CpuTlbEntries)
      .word(Hier.GpuTlbEntries)
      .word(Hier.TlbWays)
      .word(Hier.CpuPageBytes)
      .word(Hier.GpuPageBytes)
      .word(Hier.CpuMshrs)
      .word(Hier.GpuMshrs)
      .word(Hier.ScratchpadBytes)
      .word(Hier.ScratchpadLatency)
      .word(Hier.DeviceBytes)
      .word(Hier.EnableL2Prefetch ? 1 : 0)
      .word(Hier.Prefetch.NumStreams)
      .word(Hier.Prefetch.Degree)
      .word(Hier.Prefetch.MinConfidence)
      .word(Hier.Prefetch.MatchWindowBytes);

  const CommParams &Comm = Config.Comm;
  F.word(Comm.ApiPciBase)
      .real(Comm.PciBytesPerSec)
      .word(Comm.ApiAcquire)
      .word(Comm.ApiTransfer)
      .word(Comm.LibPageFault)
      .word(Comm.AsyncIssueOverhead)
      .word(Comm.PinnedHostMemory ? 1 : 0)
      .real(Comm.PageableRateFactor)
      .word(Comm.PageableStagingOverhead);

  return F.take();
}

uint64_t hetsim::hashLoweredTraces(const LoweredProgram &Program) {
  Fingerprint F;
  F.kind(Program.Kernel).word(Program.Steps.size());
  for (const ExecStep &Step : Program.Steps) {
    F.kind(Step.Kind)
        .word(Step.Bytes)
        .kind(Step.Dir)
        .word(Step.Async ? 1 : 0)
        .word(Step.PageFaultPages)
        .word(Step.Round)
        .word(Step.Objects.size());
    for (const std::string &Object : Step.Objects)
      F.text(Object);
    foldTrace(F, Step.CpuTrace);
    foldTrace(F, Step.GpuTrace);
  }
  return F.take();
}

//===----------------------------------------------------------------------===//
// ResultStore
//===----------------------------------------------------------------------===//

ResultStore::ResultStore(std::string Dir) : Root(std::move(Dir)) {}

ResultStore ResultStore::fromEnvironment() {
  const char *Env = std::getenv("HETSIM_RESULT_STORE");
  return ResultStore(Env ? Env : "");
}

ResultStore::Key ResultStore::keyFor(const SystemConfig &Config,
                                     const LoweredProgram &Program) {
  Key K;
  K.ConfigHash = hashSystemConfig(Config);
  K.TraceHash = hashLoweredTraces(Program);
  K.CodeVersion = ResultStoreCodeVersion;
  return K;
}

std::string ResultStore::entryPath(const Key &K) const {
  char Name[80];
  std::snprintf(Name, sizeof(Name),
                "%016" PRIx64 "-%016" PRIx64 "-%" PRIu64 ".result",
                K.ConfigHash, K.TraceHash, K.CodeVersion);
  return Root + "/" + Name;
}

bool ResultStore::load(const Key &K, Entry &Out) const {
  if (!enabled())
    return false;
  std::FILE *File = std::fopen(entryPath(K).c_str(), "r");
  if (!File) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  bool Ok = [&] {
    char Magic[32];
    if (std::fscanf(File, "%31s", Magic) != 1 ||
        std::strcmp(Magic, "hetsim-result-v1") != 0)
      return false;
    uint64_t Cfg = 0, Trace = 0, Version = 0;
    char Tag[16];
    if (std::fscanf(File, "%15s %" SCNx64 " %" SCNx64 " %" SCNu64, Tag,
                    &Cfg, &Trace, &Version) != 4 ||
        std::strcmp(Tag, "key") != 0 || Cfg != K.ConfigHash ||
        Trace != K.TraceHash || Version != K.CodeVersion)
      return false;

    RunResult &R = Out.Result;
    R = RunResult();
    if (std::fscanf(File, "%15s %la %la %la", Tag, &R.Time.SequentialNs,
                    &R.Time.ParallelNs, &R.Time.CommunicationNs) != 4 ||
        std::strcmp(Tag, "time") != 0)
      return false;
    if (std::fscanf(File, "%15s", Tag) != 1 ||
        std::strcmp(Tag, "phases") != 0)
      return false;
    for (double &Ns : R.Phases.Ns)
      if (std::fscanf(File, "%la", &Ns) != 1)
        return false;
    if (!readSegment(File, "cpu", R.CpuTotal) ||
        !readSegment(File, "gpu", R.GpuTotal))
      return false;
    unsigned long long Lines = 0;
    if (std::fscanf(File,
                    "%15s %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                    Tag, &R.TransferredBytes, &R.TransferCount,
                    &R.PageFaults, &R.OwnershipActions) != 5 ||
        std::strcmp(Tag, "xfer") != 0)
      return false;
    if (std::fscanf(File, "%15s %la", Tag, &R.PushNs) != 2 ||
        std::strcmp(Tag, "push") != 0)
      return false;
    if (std::fscanf(File, "%15s %llu", Tag, &Lines) != 2 ||
        std::strcmp(Tag, "commlines") != 0)
      return false;
    R.CommSourceLines = static_cast<unsigned>(Lines);

    unsigned long long Count = 0;
    if (std::fscanf(File, "%15s %llu", Tag, &Count) != 2 ||
        std::strcmp(Tag, "metrics") != 0)
      return false;
    Out.Metrics = MetricsSnapshot();
    char Name[256];
    for (unsigned long long I = 0; I != Count; ++I) {
      double Value = 0;
      if (std::fscanf(File, "%15s %255s %la", Tag, Name, &Value) != 3 ||
          std::strcmp(Tag, "m") != 0)
        return false;
      Out.Metrics.add(Name, Value);
    }
    if (std::fscanf(File, "%15s", Tag) != 1 || std::strcmp(Tag, "end") != 0)
      return false;
    return true;
  }();

  std::fclose(File);
  (Ok ? Hits : Misses).fetch_add(1, std::memory_order_relaxed);
  return Ok;
}

bool ResultStore::save(const Key &K, const Entry &E) const {
  if (!enabled())
    return false;

  std::error_code Ec;
  std::filesystem::create_directories(Root, Ec);

  // Unique temp name per writer so concurrent workers (or processes)
  // never interleave into the same file; rename() then publishes the
  // complete entry atomically.
  static std::atomic<uint64_t> TempCounter{0};
  std::string Final = entryPath(K);
  char Suffix[48];
  std::snprintf(Suffix, sizeof(Suffix), ".tmp.%ld.%" PRIu64,
                static_cast<long>(::getpid()),
                TempCounter.fetch_add(1, std::memory_order_relaxed));
  std::string Temp = Final + Suffix;

  std::FILE *File = std::fopen(Temp.c_str(), "w");
  if (!File) {
    logWarning("result store: cannot write %s", Temp.c_str());
    return false;
  }

  const RunResult &R = E.Result;
  std::fprintf(File, "hetsim-result-v1\n");
  std::fprintf(File, "key %016" PRIx64 " %016" PRIx64 " %" PRIu64 "\n",
               K.ConfigHash, K.TraceHash, K.CodeVersion);
  // Hex-float (%a) round-trips doubles exactly: a loaded entry is
  // bit-identical to the freshly simulated one.
  std::fprintf(File, "time %a %a %a\n", R.Time.SequentialNs,
               R.Time.ParallelNs, R.Time.CommunicationNs);
  std::fprintf(File, "phases");
  for (double Ns : R.Phases.Ns)
    std::fprintf(File, " %a", Ns);
  std::fprintf(File, "\n");
  writeSegment(File, "cpu", R.CpuTotal);
  writeSegment(File, "gpu", R.GpuTotal);
  std::fprintf(File, "xfer %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
               R.TransferredBytes, R.TransferCount, R.PageFaults,
               R.OwnershipActions);
  std::fprintf(File, "push %a\n", R.PushNs);
  std::fprintf(File, "commlines %u\n", R.CommSourceLines);
  std::fprintf(File, "metrics %zu\n", E.Metrics.size());
  for (const auto &[Name, Value] : E.Metrics.values())
    std::fprintf(File, "m %s %a\n", Name.c_str(), Value);
  std::fprintf(File, "end\n");

  bool WriteOk = std::ferror(File) == 0;
  std::fclose(File);
  if (!WriteOk) {
    std::remove(Temp.c_str());
    return false;
  }

  std::filesystem::rename(Temp, Final, Ec);
  if (Ec) {
    logWarning("result store: cannot publish %s", Final.c_str());
    std::remove(Temp.c_str());
    return false;
  }
  Stores.fetch_add(1, std::memory_order_relaxed);
  return true;
}
