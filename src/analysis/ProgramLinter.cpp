//===- analysis/ProgramLinter.cpp -----------------------------------------===//

#include "analysis/ProgramLinter.h"

#include "core/KernelModel.h"
#include "core/LocalityValidation.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace hetsim;

const char *hetsim::lintKindName(LintKind Kind) {
  switch (Kind) {
  case LintKind::UseBeforeTransfer:
    return "use-before-transfer";
  case LintKind::StaleReadback:
    return "stale-readback";
  case LintKind::MissingDmaWait:
    return "missing-dma-wait";
  case LintKind::MissingOwnership:
    return "missing-ownership";
  case LintKind::DoubleOwnership:
    return "double-ownership";
  case LintKind::RedundantTransfer:
    return "redundant-transfer";
  case LintKind::UnstagedSharedUse:
    return "unstaged-shared-use";
  case LintKind::CrossPuRace:
    return "cross-pu-race";
  case LintKind::ModelMismatch:
    return "model-mismatch";
  case LintKind::StructureMismatch:
    return "structure-mismatch";
  }
  return "unknown";
}

const char *hetsim::lintSeverityName(LintSeverity Severity) {
  return Severity == LintSeverity::Error ? "error" : "warning";
}

std::string LintDiagnostic::render(const char *StepName) const {
  std::ostringstream Os;
  Os << "step " << StepIndex << " (" << StepName
     << "): " << lintSeverityName(Severity) << ": " << lintKindName(Kind)
     << ": " << Message;
  if (!FixHint.empty())
    Os << " [fix: " << FixHint << "]";
  return Os.str();
}

unsigned LintReport::errorCount() const {
  unsigned Count = 0;
  for (const LintDiagnostic &D : Diags)
    if (D.Severity == LintSeverity::Error)
      ++Count;
  return Count;
}

unsigned LintReport::warningCount() const {
  unsigned Count = 0;
  for (const LintDiagnostic &D : Diags)
    if (D.Severity == LintSeverity::Warning)
      ++Count;
  return Count;
}

namespace {

using StringSet = std::unordered_set<std::string>;

/// The per-program walk. One instance lints one (program, config) pair.
class Linter {
public:
  Linter(const LoweredProgram &Prog, const SystemConfig &Cfg)
      : Program(Prog), Config(Cfg) {
    Report.Kernel = Program.Kernel;
    Report.System = Config.Name;
    for (const DataObjectSpec &Spec : kernelDataObjects(Program.Kernel)) {
      if (Spec.Dir == TransferDir::HostToDevice)
        Inputs.insert(Spec.Name);
      else
        Outputs.insert(Spec.Name);
    }
  }

  LintReport run() {
    bool StructureOk = checkStructure();
    checkAsyncHazards();
    checkLocality();
    if (StructureOk) {
      computeConsumedSets();
      switch (Config.AddrSpace) {
      case AddressSpaceKind::Unified:
        lintUnified();
        break;
      case AddressSpaceKind::Disjoint:
        lintDisjoint();
        break;
      case AddressSpaceKind::PartiallyShared:
        lintPartiallyShared();
        break;
      case AddressSpaceKind::Adsm:
        lintAdsm();
        break;
      }
      if (Config.UseOwnership &&
          (Config.AddrSpace == AddressSpaceKind::PartiallyShared ||
           Config.AddrSpace == AddressSpaceKind::Unified))
        lintOwnership();
    }
    std::stable_sort(Report.Diags.begin(), Report.Diags.end(),
                     [](const LintDiagnostic &A, const LintDiagnostic &B) {
                       return A.StepIndex < B.StepIndex;
                     });
    return std::move(Report);
  }

private:
  void diag(LintKind Kind, LintSeverity Severity, size_t StepIndex,
            std::string Object, std::string Message, std::string Fix) {
    LintDiagnostic D;
    D.Kind = Kind;
    D.Severity = Severity;
    D.StepIndex = StepIndex;
    D.Object = std::move(Object);
    D.Message = std::move(Message);
    D.FixHint = std::move(Fix);
    Report.Diags.push_back(std::move(D));
  }

  /// The lowered compute steps must match the kernel's abstract phase
  /// skeleton one-for-one; the data-flow machines replay that skeleton.
  bool checkStructure() {
    Phases = KernelProgram::build(Program.Kernel);
    unsigned ParPhases = 0, SerialPhases = 0;
    for (const KernelPhase &Phase : Phases.phases()) {
      if (Phase.Kind == PhaseKind::Parallel)
        ++ParPhases;
      if (Phase.Kind == PhaseKind::Serial)
        ++SerialPhases;
    }
    unsigned ParSteps = Program.countSteps(ExecKind::ParallelCompute);
    unsigned SerialSteps = Program.countSteps(ExecKind::SerialCompute);
    if (ParSteps == ParPhases && SerialSteps == SerialPhases)
      return true;
    std::ostringstream Os;
    Os << "compute steps do not match the kernel's phase structure ("
       << ParSteps << " parallel vs " << ParPhases << " expected, "
       << SerialSteps << " serial vs " << SerialPhases
       << " expected); data-flow rules skipped";
    diag(LintKind::StructureMismatch, LintSeverity::Error, 0, "",
         Os.str(), "lower the program with lowerKernel()");
    return false;
  }

  /// What the k-th parallel round consumes: the kernel's inputs plus
  /// everything a TransferIn phase named since the previous round (the
  /// exact rule the ADSM lowering applies; k-means re-consumes its
  /// centroids this way, convolution's second round consumes nothing
  /// fresh).
  void computeConsumedSets() {
    StringSet Pending;
    for (const KernelPhase &Phase : Phases.phases()) {
      if (Phase.Kind == PhaseKind::TransferIn)
        Pending.insert(Phase.Objects.begin(), Phase.Objects.end());
      if (Phase.Kind == PhaseKind::Parallel) {
        StringSet Consumed = Inputs;
        Consumed.insert(Pending.begin(), Pending.end());
        ConsumedPerRound.push_back(std::move(Consumed));
        Pending.clear();
      }
    }
  }

  bool touches(const ExecStep &Step, const std::vector<std::string> &Objs,
               StringSet &Hit) const {
    Hit.clear();
    if (Step.Kind == ExecKind::SerialCompute) {
      for (const std::string &Name : Objs)
        if (Outputs.count(Name))
          Hit.insert(Name);
    } else if (Step.Kind == ExecKind::Transfer) {
      for (const std::string &Name : Objs)
        if (std::find(Step.Objects.begin(), Step.Objects.end(), Name) !=
            Step.Objects.end())
          Hit.insert(Name);
    }
    return !Hit.empty();
  }

  /// Hazards on the DMA timeline, from the happens-before graph:
  /// asynchronous copies nothing drains, waits with nothing in flight,
  /// and steps that touch an in-flight copy's objects with no ordering
  /// edge from its completion.
  void checkAsyncHazards() {
    HbGraph Graph = HbGraph::build(Program, Config);
    for (size_t I : Graph.undrainedTransfers())
      diag(LintKind::MissingDmaWait, LintSeverity::Error, I,
           joinNames(Program.Steps[I].Objects),
           "asynchronous transfer may still be in flight when the "
           "program ends",
           "append a dma-wait before the program ends");

    unsigned InFlight = 0;
    for (size_t I = 0; I != Program.Steps.size(); ++I) {
      const ExecStep &Step = Program.Steps[I];
      if (Step.Kind == ExecKind::Transfer && Step.Async)
        ++InFlight;
      if (Step.Kind == ExecKind::ParallelCompute)
        InFlight = 0;
      if (Step.Kind == ExecKind::DmaWait) {
        if (InFlight == 0)
          diag(LintKind::ModelMismatch, LintSeverity::Warning, I, "",
               "dma-wait with no asynchronous copy in flight",
               "drop this wait");
        InFlight = 0;
      }
    }

    StringSet Hit;
    for (size_t I = 0; I != Program.Steps.size(); ++I) {
      const ExecStep &Transfer = Program.Steps[I];
      if (Transfer.Kind != ExecKind::Transfer || !Transfer.Async)
        continue;
      size_t Dma = Graph.dmaNode(I);
      for (size_t J = I + 1; J != Program.Steps.size(); ++J) {
        if (Graph.reaches(Dma, Graph.stepNode(J)))
          continue;
        if (!touches(Program.Steps[J], Transfer.Objects, Hit))
          continue;
        diag(LintKind::CrossPuRace, LintSeverity::Error, J,
             joinNames(Hit),
             "step overlaps the asynchronous copy issued at step " +
                 std::to_string(I) + " with no ordering edge",
             "emit a dma-wait between the copy and this step");
      }
    }
  }

  /// Strict (Sequoia-style) explicit shared locality: every shared
  /// object a round touches must have been staged by a preceding push.
  void checkLocality() {
    if (Config.Locality.Shared != SharedLocality::Explicit &&
        Config.Locality.Shared != SharedLocality::Hybrid)
      return;
    for (const LocalityViolation &V : findUnstagedSharedUses(Program)) {
      size_t StepIndex = parStepOfRound(V.Round);
      diag(LintKind::UnstagedSharedUse, LintSeverity::Error, StepIndex,
           V.Object,
           "round " + std::to_string(V.Round) + " uses shared object '" +
               V.Object + "' never staged into the shared cache",
           "emit a push of '" + V.Object + "' before this round");
    }
  }

  //===--------------------------------------------------------------===//
  // Disjoint spaces: every boundary crossing needs an explicit copy.
  // HostDirty = host writes not yet pushed to the device copy;
  // GpuDirty = device results not yet copied back.
  //===--------------------------------------------------------------===//

  void lintDisjoint() {
    std::unordered_map<std::string, bool> HostDirty, GpuDirty;
    for (const std::string &Name : Inputs)
      HostDirty[Name] = true; // The host initialized the inputs.
    size_t LastPar = 0;
    unsigned Round = 0;
    for (size_t I = 0; I != Program.Steps.size(); ++I) {
      const ExecStep &Step = Program.Steps[I];
      switch (Step.Kind) {
      case ExecKind::Transfer:
        for (const std::string &Name : Step.Objects) {
          if (Step.Dir == TransferDir::HostToDevice) {
            if (!HostDirty[Name])
              diag(LintKind::RedundantTransfer, LintSeverity::Warning, I,
                   Name,
                   "copies '" + Name +
                       "', already valid on the device — a dead copy",
                   "drop '" + Name + "' from this transfer");
            if (GpuDirty[Name])
              diag(LintKind::CrossPuRace, LintSeverity::Error, I, Name,
                   "host-to-device copy overwrites device results for '" +
                       Name + "' never copied back",
                   "emit a device-to-host transfer of '" + Name +
                       "' first");
            HostDirty[Name] = false;
            GpuDirty[Name] = false;
          } else {
            if (!GpuDirty[Name])
              diag(LintKind::RedundantTransfer, LintSeverity::Warning, I,
                   Name,
                   "copies back '" + Name +
                       "', which the device never updated — a dead copy",
                   "drop '" + Name + "' from this transfer");
            GpuDirty[Name] = false;
            HostDirty[Name] = false;
          }
        }
        break;
      case ExecKind::ParallelCompute:
        for (const std::string &Name : consumed(Round))
          if (HostDirty[Name])
            diag(LintKind::UseBeforeTransfer, LintSeverity::Error, I,
                 Name,
                 "round consumes '" + Name +
                     "' but the device copy is stale (host writes were "
                     "never transferred)",
                 "emit a host-to-device transfer of '" + Name +
                     "' before this round");
        for (const std::string &Name : Outputs)
          GpuDirty[Name] = true;
        LastPar = I;
        ++Round;
        break;
      case ExecKind::SerialCompute:
        for (const std::string &Name : Outputs) {
          if (GpuDirty[Name])
            diag(LintKind::StaleReadback, LintSeverity::Error, I, Name,
                 "host merges '" + Name +
                     "' but the device results were never copied back",
                 "emit a device-to-host transfer of '" + Name +
                     "' before this step");
          HostDirty[Name] = true;
        }
        break;
      case ExecKind::OwnershipToGpu:
      case ExecKind::OwnershipToCpu:
        diag(LintKind::ModelMismatch, LintSeverity::Warning, I, "",
             "ownership transfer in a disjoint space, which has no "
             "shared objects",
             "drop this step");
        break;
      default:
        break;
      }
    }
    for (const std::string &Name : Outputs)
      if (GpuDirty[Name])
        diag(LintKind::StaleReadback, LintSeverity::Error, LastPar, Name,
             "program ends with device results for '" + Name +
                 "' never copied back",
             "emit a device-to-host transfer of '" + Name +
                 "' after this round");
  }

  //===--------------------------------------------------------------===//
  // Partially shared space: data lives in the shared region; each
  // object pays one initial aperture transfer and results are read in
  // place. Ownership legality is checked separately (lintOwnership).
  //===--------------------------------------------------------------===//

  void lintPartiallyShared() {
    StringSet Initialized;
    unsigned Round = 0;
    for (size_t I = 0; I != Program.Steps.size(); ++I) {
      const ExecStep &Step = Program.Steps[I];
      switch (Step.Kind) {
      case ExecKind::Transfer:
        if (Step.Dir == TransferDir::DeviceToHost) {
          diag(LintKind::ModelMismatch, LintSeverity::Warning, I,
               joinNames(Step.Objects),
               "device-to-host copy in a partially shared space; "
               "results are read in place",
               "drop this transfer");
          break;
        }
        for (const std::string &Name : Step.Objects) {
          if (!Initialized.insert(Name).second)
            diag(LintKind::RedundantTransfer, LintSeverity::Warning, I,
                 Name,
                 "aperture transfer re-initializes '" + Name +
                     "', already placed in the shared region",
                 "drop '" + Name + "' from this transfer");
        }
        break;
      case ExecKind::ParallelCompute:
        // Device writes land in the shared region directly, but they do
        // not substitute for an object's one-time aperture placement —
        // outputs the program re-consumes (k-means centroids) still pay
        // their initial transfer when first named by a TransferIn.
        for (const std::string &Name : consumed(Round))
          if (!Initialized.count(Name) && !Outputs.count(Name))
            diag(LintKind::UseBeforeTransfer, LintSeverity::Error, I,
                 Name,
                 "round consumes '" + Name +
                     "' before its initial aperture transfer placed it "
                     "in the shared region",
                 "emit an aperture transfer of '" + Name +
                     "' before this round");
        ++Round;
        break;
      default:
        break;
      }
    }
  }

  //===--------------------------------------------------------------===//
  // Ownership discipline (LRB): shared objects must be released to the
  // PU that touches them. Owner tracks who holds each shared object.
  //===--------------------------------------------------------------===//

  void lintOwnership() {
    enum class Pu { Cpu, Gpu };
    std::unordered_map<std::string, Pu> Owner;
    for (const std::string &Name : Program.Place.SharedObjects)
      Owner[Name] = Pu::Cpu;
    size_t LastPar = 0;
    for (size_t I = 0; I != Program.Steps.size(); ++I) {
      const ExecStep &Step = Program.Steps[I];
      switch (Step.Kind) {
      case ExecKind::OwnershipToGpu:
      case ExecKind::OwnershipToCpu: {
        Pu Target =
            Step.Kind == ExecKind::OwnershipToGpu ? Pu::Gpu : Pu::Cpu;
        bool AnyChange = Step.Objects.empty();
        for (const std::string &Name : Step.Objects) {
          if (Owner[Name] != Target)
            AnyChange = true;
          Owner[Name] = Target;
        }
        if (!AnyChange)
          diag(LintKind::DoubleOwnership, LintSeverity::Warning, I,
               joinNames(Step.Objects),
               "every listed object is already owned by the "
               "acquiring side",
               "drop this ownership transfer");
        break;
      }
      case ExecKind::ParallelCompute:
        for (const std::string &Name : Program.Place.SharedObjects)
          if (Owner[Name] != Pu::Gpu)
            diag(LintKind::MissingOwnership, LintSeverity::Error, I,
                 Name,
                 "device computes on '" + Name +
                     "' while the host still owns it",
                 "emit an ownership-to-gpu of '" + Name +
                     "' before this round");
        LastPar = I;
        break;
      case ExecKind::SerialCompute:
        for (const std::string &Name : Outputs)
          if (Owner.count(Name) && Owner[Name] == Pu::Gpu)
            diag(LintKind::StaleReadback, LintSeverity::Error, I, Name,
                 "host merges '" + Name +
                     "' without re-acquiring it from the device",
                 "emit an ownership-to-cpu of '" + Name +
                     "' before this step");
        break;
      default:
        break;
      }
    }
    for (const std::string &Name : Outputs)
      if (Owner.count(Name) && Owner[Name] == Pu::Gpu)
        diag(LintKind::MissingOwnership, LintSeverity::Error, LastPar,
             Name,
             "program ends with '" + Name + "' still owned by the device",
             "emit an ownership-to-cpu of '" + Name +
                 "' after this round");
  }

  //===--------------------------------------------------------------===//
  // ADSM: replay the software-coherence protocol. Each object is
  // host-valid, accelerator-valid, or both; the runtime's sync points
  // (kernel launch, host access) must move exactly the stale copies.
  //===--------------------------------------------------------------===//

  void lintAdsm() {
    enum class V { Host, Acc, Both };
    std::unordered_map<std::string, V> State;
    for (const std::string &Name : Inputs)
      State[Name] = V::Host;
    for (const std::string &Name : Outputs)
      State[Name] = V::Acc;
    size_t LastPar = 0;
    unsigned Round = 0;
    for (size_t I = 0; I != Program.Steps.size(); ++I) {
      const ExecStep &Step = Program.Steps[I];
      switch (Step.Kind) {
      case ExecKind::Transfer:
        for (const std::string &Name : Step.Objects) {
          if (Step.Dir == TransferDir::HostToDevice) {
            if (State[Name] != V::Host)
              diag(LintKind::RedundantTransfer, LintSeverity::Warning, I,
                   Name,
                   "runtime copies '" + Name +
                       "' although the accelerator copy is valid",
                   "drop '" + Name + "' from this sync transfer");
            State[Name] = V::Both;
          } else {
            if (State[Name] != V::Acc)
              diag(LintKind::RedundantTransfer, LintSeverity::Warning, I,
                   Name,
                   "runtime copies back '" + Name +
                       "' although the host copy is valid",
                   "drop '" + Name + "' from this sync transfer");
            // The host access both reads and updates the results, so
            // the accelerator copy is invalidated.
            State[Name] = V::Host;
          }
        }
        break;
      case ExecKind::ParallelCompute:
        for (const std::string &Name : consumed(Round))
          if (State[Name] == V::Host)
            diag(LintKind::UseBeforeTransfer, LintSeverity::Error, I,
                 Name,
                 "round consumes '" + Name +
                     "' while the accelerator copy is invalid (the "
                     "kernel-launch sync never copied it)",
                 "emit the runtime sync transfer of '" + Name +
                     "' before this round");
        for (const std::string &Name : Outputs)
          State[Name] = V::Acc;
        LastPar = I;
        ++Round;
        break;
      case ExecKind::SerialCompute:
        for (const std::string &Name : Outputs) {
          if (State[Name] == V::Acc)
            diag(LintKind::StaleReadback, LintSeverity::Error, I, Name,
                 "host merges '" + Name +
                     "' while its copy is invalid (no host-access sync "
                     "transfer)",
                 "emit the runtime sync transfer of '" + Name +
                     "' before this step");
          State[Name] = V::Host;
        }
        break;
      case ExecKind::OwnershipToGpu:
      case ExecKind::OwnershipToCpu:
        diag(LintKind::ModelMismatch, LintSeverity::Warning, I, "",
             "ownership transfer under ADSM; the runtime protocol "
             "already tracks validity",
             "drop this step");
        break;
      default:
        break;
      }
    }
    for (const std::string &Name : Outputs)
      if (State[Name] == V::Acc)
        diag(LintKind::StaleReadback, LintSeverity::Error, LastPar, Name,
             "program ends with '" + Name +
                 "' valid only on the accelerator",
             "emit the runtime sync transfer of '" + Name +
                 "' after this round");
  }

  //===--------------------------------------------------------------===//
  // Unified space: data is visible everywhere; explicit movement is
  // dead work (and ownership without the discipline enabled is noise).
  //===--------------------------------------------------------------===//

  void lintUnified() {
    for (size_t I = 0; I != Program.Steps.size(); ++I) {
      const ExecStep &Step = Program.Steps[I];
      if (Step.Kind == ExecKind::Transfer)
        diag(LintKind::ModelMismatch, LintSeverity::Warning, I,
             joinNames(Step.Objects),
             "explicit transfer in a unified space; data is already "
             "visible everywhere",
             "drop this transfer");
      if (!Config.UseOwnership && (Step.Kind == ExecKind::OwnershipToGpu ||
                                   Step.Kind == ExecKind::OwnershipToCpu))
        diag(LintKind::ModelMismatch, LintSeverity::Warning, I,
             joinNames(Step.Objects),
             "ownership transfer without the ownership discipline "
             "enabled",
             "drop this step");
    }
  }

  const StringSet &consumed(unsigned Round) const {
    static const StringSet Empty;
    return Round < ConsumedPerRound.size() ? ConsumedPerRound[Round]
                                           : Empty;
  }

  size_t parStepOfRound(unsigned Round) const {
    for (size_t I = 0; I != Program.Steps.size(); ++I)
      if (Program.Steps[I].Kind == ExecKind::ParallelCompute &&
          Program.Steps[I].Round == Round)
        return I;
    return 0;
  }

  template <class Container>
  static std::string joinNames(const Container &Names) {
    std::string Joined;
    for (const std::string &Name : Names) {
      if (!Joined.empty())
        Joined += ",";
      Joined += Name;
    }
    return Joined;
  }

  const LoweredProgram &Program;
  const SystemConfig &Config;
  LintReport Report;
  KernelProgram Phases;
  StringSet Inputs;
  StringSet Outputs;
  std::vector<StringSet> ConsumedPerRound;
};

} // namespace

LintReport hetsim::lintProgram(const LoweredProgram &Program,
                               const SystemConfig &Config) {
  return Linter(Program, Config).run();
}

std::string hetsim::renderReport(const LintReport &Report,
                                 const LoweredProgram &Program) {
  std::ostringstream Os;
  for (const LintDiagnostic &D : Report.Diags) {
    const char *StepName = D.StepIndex < Program.Steps.size()
                               ? execKindName(Program.Steps[D.StepIndex].Kind)
                               : "end";
    Os << D.render(StepName) << "\n";
  }
  return Os.str();
}
