//===- core/Lowering.cpp --------------------------------------------------===//

#include "core/Lowering.h"

#include "common/Error.h"
#include "memory/SoftwareCoherence.h"
#include "trace/ComputeBlock.h"
#include "trace/KernelTraceGenerator.h"

#include <cassert>
#include <memory>
#include <unordered_set>

using namespace hetsim;

const char *hetsim::execKindName(ExecKind Kind) {
  switch (Kind) {
  case ExecKind::SerialCompute:
    return "serial";
  case ExecKind::ParallelCompute:
    return "parallel";
  case ExecKind::Transfer:
    return "transfer";
  case ExecKind::DmaWait:
    return "dma-wait";
  case ExecKind::OwnershipToGpu:
    return "ownership-to-gpu";
  case ExecKind::OwnershipToCpu:
    return "ownership-to-cpu";
  case ExecKind::PushLocality:
    return "push";
  }
  hetsim_unreachable("invalid exec kind");
}

unsigned LoweredProgram::countSteps(ExecKind Kind) const {
  unsigned Count = 0;
  for (const ExecStep &Step : Steps)
    if (Step.Kind == Kind)
      ++Count;
  return Count;
}

namespace {

/// Stateful helper that walks the abstract phases and appends steps.
class LoweringContext {
public:
  LoweringContext(KernelId K, const SystemConfig &Cfg)
      : Kernel(K), Config(Cfg) {
    Program = KernelProgram::build(K);
    Out.Kernel = K;
    Out.Place = placeKernel(Cfg.AddrSpace, K);
    Out.Source = emitCommunicationSource(K, Cfg.AddrSpace);

    // ADSM uses the software (runtime) coherence protocol to decide
    // which kernel-boundary crossings actually move data (Section
    // II-A4): inputs start host-valid, pure outputs accelerator-valid.
    if (Config.AddrSpace == AddressSpaceKind::Adsm) {
      for (const DataObjectSpec &Spec : kernelDataObjects(Kernel))
        Runtime.registerObject(Spec.Name, Spec.Bytes,
                               Spec.Dir == TransferDir::DeviceToHost
                                   ? SwCohState::AccValid
                                   : SwCohState::HostValid);
    }
  }

  LoweredProgram take() {
    for (const KernelPhase &Phase : Program.phases())
      lowerPhase(Phase);
    if (Config.AsyncCopies)
      appendWait(); // Drain anything still in flight at program end.
    Out.BuiltFromKernel = true;
    return std::move(Out);
  }

private:
  uint64_t objectBytes(const std::string &Name) const {
    return Out.Place.CpuLayout.segment(Name).Bytes;
  }

  uint64_t sumBytes(const std::vector<std::string> &Names) const {
    uint64_t Bytes = 0;
    for (const std::string &Name : Names)
      Bytes += objectBytes(Name);
    return Bytes;
  }

  void appendWait() {
    // Collapse adjacent waits: one drain is enough.
    if (!Out.Steps.empty() && Out.Steps.back().Kind == ExecKind::DmaWait)
      return;
    ExecStep Step;
    Step.Kind = ExecKind::DmaWait;
    Out.Steps.push_back(std::move(Step));
  }

  /// Pages of the shared region the GPU touches for the first time in a
  /// parallel phase: the GPU half of every shared object (using exactly
  /// the generator's split rule), deduplicated across rounds.
  uint64_t newGpuFaultPages() {
    if (!Config.FirstTouchFaults)
      return 0;
    uint64_t PageBytes = Config.Hier.GpuPageBytes;
    uint64_t NewPages = 0;
    for (const DataSegment &Segment : Out.Place.GpuLayout.segments()) {
      if (regionOf(Segment.Base) != MemRegion::Shared)
        continue;
      StreamCursor Cursor = KernelTraceGenerator::cursorFor(
          Segment, WorkSplit::SecondHalf);
      Addr First = Cursor.Base / PageBytes;
      Addr Last = (Cursor.Base + Cursor.Bytes - 1) / PageBytes;
      for (Addr Page = First; Page <= Last; ++Page)
        if (TouchedPages.insert(Page).second)
          ++NewPages;
    }
    return NewPages;
  }

  void lowerPhase(const KernelPhase &Phase) {
    switch (Phase.Kind) {
    case PhaseKind::Serial:
      lowerSerial(Phase);
      break;
    case PhaseKind::Parallel:
      lowerParallel(Phase);
      break;
    case PhaseKind::TransferIn:
      lowerTransfer(Phase, TransferDir::HostToDevice);
      break;
    case PhaseKind::TransferOut:
      lowerTransfer(Phase, TransferDir::DeviceToHost);
      break;
    }
  }

  void lowerSerial(const KernelPhase &Phase) {
    // A serial phase that consumes asynchronously returned results does
    // NOT insert a blocking wait: the ADSM runtime pages results in on
    // demand, so the copy overlaps the serial pass and the driver charges
    // only the portion that outlasts it. (The program-end wait in take()
    // still drains everything.)
    ExecStep Step;
    Step.Kind = ExecKind::SerialCompute;
    Step.CpuTrace = SharedTrace(std::make_shared<const BlockTrace>(
        Kernel, Phase.SerialInsts, SeedCounter++, Out.Place.CpuLayout));
    Out.Steps.push_back(std::move(Step));
  }

  void lowerParallel(const KernelPhase &Phase) {
    // ADSM: kernel launch is the runtime's sync point — consult the
    // protocol for every shared object the kernel touches and move only
    // what is stale on the accelerator. An object the kernel *consumes*
    // (an input, or anything the abstract program's TransferIn named for
    // this round) may need a copy-in; a pure output is overwritten
    // wholesale and never copied in (write-invalidate).
    if (Config.AddrSpace == AddressSpaceKind::Adsm) {
      ExecStep Sync;
      Sync.Kind = ExecKind::Transfer;
      Sync.Dir = TransferDir::HostToDevice;
      Sync.Async = Config.AsyncCopies;
      Sync.Round = Phase.Round;
      for (const DataObjectSpec &Spec : kernelDataObjects(Kernel)) {
        bool GpuWrites = Spec.Dir == TransferDir::DeviceToHost;
        bool Consumed = Spec.Dir == TransferDir::HostToDevice ||
                        PendingTransferIn.count(Spec.Name) != 0;
        if (!Consumed) {
          Runtime.onAccOverwrite(Spec.Name);
          continue;
        }
        uint64_t Needed = Runtime.onAccAccess(Spec.Name, GpuWrites);
        if (Needed != 0) {
          Sync.Bytes += Needed;
          Sync.Objects.push_back(Spec.Name);
        }
      }
      PendingTransferIn.clear();
      if (Sync.Bytes != 0) {
        Out.Steps.push_back(std::move(Sync));
        PendingAsync = Config.AsyncCopies;
      }
    }

    // Explicit shared-cache locality: push the shared objects in first.
    if (Config.Locality.Shared == SharedLocality::Explicit ||
        Config.Locality.Shared == SharedLocality::Hybrid) {
      ExecStep Push;
      Push.Kind = ExecKind::PushLocality;
      for (const std::string &Name : Out.Place.SharedObjects)
        Push.Objects.push_back(Name);
      Push.Bytes = sumBytes(Push.Objects);
      if (!Push.Objects.empty())
        Out.Steps.push_back(std::move(Push));
    }

    // Ownership: host releases the shared objects to the GPU round.
    if (Config.UseOwnership) {
      ExecStep Release;
      Release.Kind = ExecKind::OwnershipToGpu;
      Release.Objects = Out.Place.SharedObjects;
      Release.Round = Phase.Round;
      Out.Steps.push_back(std::move(Release));
    }

    ExecStep Step;
    Step.Kind = ExecKind::ParallelCompute;
    Step.Round = Phase.Round;
    // Work partitioning: Table III's budgets correspond to the paper's
    // even split; other fractions scale each PU's share proportionally
    // (the Qilin-style knob).
    double F = Config.CpuWorkFraction;
    auto ScaledCpu = uint64_t(double(Phase.CpuInsts) * 2.0 * F + 0.5);
    auto ScaledGpu =
        uint64_t(double(Phase.GpuInsts) * 2.0 * (1.0 - F) + 0.5);
    GenRequest CpuReq;
    CpuReq.Pu = PuKind::Cpu;
    CpuReq.InstCount = ScaledCpu;
    CpuReq.Seed = SeedCounter++;
    CpuReq.Split = WorkSplit::FirstHalf;
    Step.CpuTrace = SharedTrace(std::make_shared<const BlockTrace>(
        Kernel, CpuReq, Out.Place.CpuLayout));
    GenRequest GpuReq;
    GpuReq.Pu = PuKind::Gpu;
    GpuReq.InstCount = ScaledGpu;
    GpuReq.Seed = SeedCounter++;
    GpuReq.Split = WorkSplit::SecondHalf;
    Step.GpuTrace = SharedTrace(std::make_shared<const BlockTrace>(
        Kernel, GpuReq, Out.Place.GpuLayout));
    Step.PageFaultPages = Config.IdealComm ? 0 : newGpuFaultPages();
    Out.Steps.push_back(std::move(Step));
  }

  void lowerTransfer(const KernelPhase &Phase, TransferDir Dir) {
    switch (Config.AddrSpace) {
    case AddressSpaceKind::Unified:
      // Data is visible everywhere; nothing to do.
      return;

    case AddressSpaceKind::Disjoint: {
      // Every logical boundary crossing is an explicit copy.
      ExecStep Step;
      Step.Kind = ExecKind::Transfer;
      Step.Objects = Phase.Objects;
      Step.Bytes = sumBytes(Phase.Objects);
      Step.Dir = Dir;
      Step.Async = Config.AsyncCopies;
      Step.Round = Phase.Round;
      Out.Steps.push_back(std::move(Step));
      PendingAsync = Step.Async;
      return;
    }

    case AddressSpaceKind::PartiallyShared: {
      // Data already allocated in the shared space needs no transfer; the
      // initial placement of each object still pays an aperture transfer
      // (Section V-A). Results are read in place: TransferOut only moves
      // ownership, which lowerParallel/below handle.
      if (Dir == TransferDir::HostToDevice) {
        std::vector<std::string> Fresh;
        for (const std::string &Name : Phase.Objects)
          if (InitializedShared.insert(Name).second)
            Fresh.push_back(Name);
        if (!Fresh.empty()) {
          ExecStep Step;
          Step.Kind = ExecKind::Transfer;
          Step.Objects = Fresh;
          Step.Bytes = sumBytes(Fresh);
          Step.Dir = Dir;
          Step.Round = Phase.Round;
          Out.Steps.push_back(std::move(Step));
        }
        return;
      }
      // TransferOut: host re-acquires the round's outputs.
      if (Config.UseOwnership) {
        ExecStep Acquire;
        Acquire.Kind = ExecKind::OwnershipToCpu;
        Acquire.Objects = Phase.Objects;
        Acquire.Round = Phase.Round;
        Out.Steps.push_back(std::move(Acquire));
      }
      return;
    }

    case AddressSpaceKind::Adsm: {
      // TransferIn is handled lazily at kernel launch (lowerParallel) —
      // its object list marks what the next round consumes. TransferOut
      // asks the protocol what the host's access makes move.
      if (Dir == TransferDir::HostToDevice) {
        for (const std::string &Name : Phase.Objects)
          PendingTransferIn.insert(Name);
        return;
      }
      ExecStep Step;
      Step.Kind = ExecKind::Transfer;
      Step.Dir = Dir;
      Step.Async = Config.AsyncCopies;
      Step.Round = Phase.Round;
      for (const std::string &Name : Phase.Objects) {
        // The host both reads the results and updates them (merge).
        uint64_t Needed = Runtime.onHostAccess(Name, /*IsWrite=*/true);
        if (Needed != 0) {
          Step.Bytes += Needed;
          Step.Objects.push_back(Name);
        }
      }
      if (Step.Bytes != 0) {
        Out.Steps.push_back(std::move(Step));
        PendingAsync = Config.AsyncCopies;
      }
      return;
    }
    }
    hetsim_unreachable("invalid address space");
  }

  KernelId Kernel;
  const SystemConfig &Config;
  KernelProgram Program;
  LoweredProgram Out;
  uint64_t SeedCounter = 1;
  bool PendingAsync = false;
  SoftwareCoherence Runtime;
  std::unordered_set<std::string> PendingTransferIn;
  std::unordered_set<std::string> InitializedShared;
  std::unordered_set<Addr> TouchedPages;
};

} // namespace

LoweredProgram hetsim::lowerKernel(KernelId Kernel,
                                   const SystemConfig &Config) {
  return LoweringContext(Kernel, Config).take();
}
