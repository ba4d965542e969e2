//===- core/ConsistencyValidation.cpp -------------------------------------===//

#include "core/ConsistencyValidation.h"

using namespace hetsim;

namespace {

std::string cpuHalf(const std::string &Name) { return Name + ".cpu"; }
std::string gpuHalf(const std::string &Name) { return Name + ".gpu"; }

/// Base object names of \p Kernel by transfer direction.
std::vector<std::string> objectNames(KernelId Kernel, TransferDir Dir) {
  std::vector<std::string> Names;
  for (const DataObjectSpec &Spec : kernelDataObjects(Kernel))
    if (Spec.Dir == Dir)
      Names.push_back(Spec.Name);
  return Names;
}

/// Emits the events of one driver step into \p Checker. The kernel's
/// object structure supplies what compute steps touch; transfer-like
/// steps carry their own object lists.
void appendStepEvents(ConsistencyChecker &Checker, const ExecStep &Step,
                      const std::vector<std::string> &Inputs,
                      const std::vector<std::string> &Outputs) {
  switch (Step.Kind) {
  case ExecKind::SerialCompute:
    // The merge/finalize pass touches whole output objects (both
    // halves) on the CPU.
    for (const std::string &Name : Outputs) {
      Checker.read(PuKind::Cpu, cpuHalf(Name));
      Checker.read(PuKind::Cpu, gpuHalf(Name));
      Checker.write(PuKind::Cpu, cpuHalf(Name));
      Checker.write(PuKind::Cpu, gpuHalf(Name));
    }
    break;

  case ExecKind::ParallelCompute:
    // The driver launches the GPU round and joins at its end.
    Checker.kernelLaunch();
    for (const std::string &Name : Inputs) {
      Checker.read(PuKind::Cpu, cpuHalf(Name));
      Checker.read(PuKind::Gpu, gpuHalf(Name));
    }
    for (const std::string &Name : Outputs) {
      Checker.write(PuKind::Cpu, cpuHalf(Name));
      Checker.write(PuKind::Gpu, gpuHalf(Name));
    }
    Checker.kernelReturn();
    break;

  case ExecKind::Transfer:
    // The copy engine acts on the host's behalf and reads the moved
    // ranges (both halves: transfers move whole objects).
    for (const std::string &Name : Step.Objects) {
      Checker.read(PuKind::Cpu, cpuHalf(Name));
      Checker.read(PuKind::Cpu, gpuHalf(Name));
    }
    break;

  case ExecKind::DmaWait:
    // Orders prior CPU-issued copies with later CPU work: already
    // program order on the CPU.
    break;

  case ExecKind::OwnershipToGpu:
    for (const std::string &Name : Step.Objects) {
      Checker.release(PuKind::Cpu, cpuHalf(Name));
      Checker.release(PuKind::Cpu, gpuHalf(Name));
      Checker.acquire(PuKind::Gpu, cpuHalf(Name));
      Checker.acquire(PuKind::Gpu, gpuHalf(Name));
    }
    break;

  case ExecKind::OwnershipToCpu:
    for (const std::string &Name : Step.Objects) {
      Checker.release(PuKind::Gpu, cpuHalf(Name));
      Checker.release(PuKind::Gpu, gpuHalf(Name));
      Checker.acquire(PuKind::Cpu, cpuHalf(Name));
      Checker.acquire(PuKind::Cpu, gpuHalf(Name));
    }
    break;

  case ExecKind::PushLocality:
    for (const std::string &Name : Step.Objects)
      Checker.read(PuKind::Cpu, cpuHalf(Name));
    break;
  }
}

} // namespace

ConsistencyChecker hetsim::buildSyncHistory(const LoweredProgram &Program,
                                            ConsistencyModel Model) {
  ConsistencyChecker Checker(Model);
  std::vector<std::string> Inputs =
      objectNames(Program.Kernel, TransferDir::HostToDevice);
  std::vector<std::string> Outputs =
      objectNames(Program.Kernel, TransferDir::DeviceToHost);
  for (const ExecStep &Step : Program.Steps)
    appendStepEvents(Checker, Step, Inputs, Outputs);
  return Checker;
}

bool hetsim::validateRaceFree(const LoweredProgram &Program,
                              ConsistencyModel Model) {
  return buildSyncHistory(Program, Model).isRaceFree();
}
