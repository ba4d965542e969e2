//===- core/Lowering.h - Programming-model lowering -------------*- C++ -*-===//
///
/// \file
/// Lowers an abstract KernelProgram onto one SystemConfig, producing the
/// executable step sequence the driver simulates. This is where the
/// paper's programming-model differences become concrete (Section IV-C:
/// "to model different programming model effects, we use a series of
/// special instructions"): disjoint spaces get explicit transfers, the
/// partially shared space gets ownership actions, aperture transfers, and
/// batched first-touch page faults, ADSM gets (optionally asynchronous)
/// runtime copies with waits, and unified spaces get nothing.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_LOWERING_H
#define HETSIM_CORE_LOWERING_H

#include "core/KernelModel.h"
#include "core/SourceLineModel.h"
#include "core/SystemConfig.h"
#include "trace/TraceBuffer.h"

namespace hetsim {

/// Kinds of executable steps.
enum class ExecKind : uint8_t {
  SerialCompute,
  ParallelCompute,
  Transfer,         ///< Bulk data movement on the configured fabric.
  DmaWait,          ///< Block until outstanding async copies finish.
  OwnershipToGpu,   ///< Host releases shared objects; GPU side acquires.
  OwnershipToCpu,   ///< GPU side releases; host acquires the outputs.
  PushLocality,     ///< Explicit `push` of objects into the shared cache.
};

/// Returns a short name for an ExecKind.
const char *execKindName(ExecKind Kind);

/// One executable step. Compute steps hold block-trace recipes
/// (trace/ComputeBlock.h) through SharedTrace handles; consumers stream
/// their records through BlockExpander or TraceReader.
struct ExecStep {
  ExecKind Kind = ExecKind::SerialCompute;
  SharedTrace CpuTrace;
  SharedTrace GpuTrace;
  uint64_t Bytes = 0;
  TransferDir Dir = TransferDir::HostToDevice;
  bool Async = false;
  std::vector<std::string> Objects;
  /// Shared pages the GPU faults in during this parallel phase (batched
  /// lib-pf charging; LRB only).
  uint64_t PageFaultPages = 0;
  unsigned Round = 0;
};

/// The lowered program.
struct LoweredProgram {
  KernelId Kernel = KernelId::Reduction;
  Placement Place;
  std::vector<ExecStep> Steps;
  /// Host communication statements (the Table V programmability view of
  /// the same lowering decisions).
  HostSource Source;

  /// True when produced by lowerKernel() (enables the driver's
  /// consistency validation, which replays the kernel's object structure).
  bool BuiltFromKernel = false;

  /// Counts steps of a given kind.
  unsigned countSteps(ExecKind Kind) const;
};

/// Lowers \p Kernel for \p Config.
LoweredProgram lowerKernel(KernelId Kernel, const SystemConfig &Config);

} // namespace hetsim

#endif // HETSIM_CORE_LOWERING_H
