//===- core/SystemConfig.h - Simulated system configurations ----*- C++ -*-===//
///
/// \file
/// A SystemConfig is one point in the design space, fully determining how
/// a kernel is lowered and simulated. The five case studies of Section V-A
/// (CPU+GPU(CUDA), LRB, GMAC, Fusion, IDEAL-HETERO) are presets; Figure 7
/// uses address-space variants with ideal communication; ablations sweep
/// individual parameters through a ConfigStore, whose keys are applied by
/// the one key table in SystemConfig.cpp (docs/CONFIG_KEYS.md).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_SYSTEMCONFIG_H
#define HETSIM_CORE_SYSTEMCONFIG_H

#include "comm/CommParams.h"
#include "common/Config.h"
#include "core/DesignSpace.h"
#include "cpu/CpuCore.h"
#include "gpu/GpuCore.h"
#include "memory/MemorySystem.h"

namespace hetsim {

/// The five case-study systems of Section V-A.
enum class CaseStudy : uint8_t {
  CpuGpu = 0,  ///< Disjoint space over PCI-E (CUDA-style).
  Lrb,         ///< Partially shared space with PCI aperture + ownership.
  Gmac,        ///< ADSM over PCI-E with asynchronous copies.
  Fusion,      ///< Disjoint space with memory-controller connection.
  IdealHetero, ///< Unified, fully coherent; zero communication cost.
};

inline constexpr unsigned NumCaseStudies = 5;

/// Display name ("CPU+GPU", "LRB", "GMAC", "Fusion", "IDEAL-HETERO").
const char *caseStudyName(CaseStudy Study);

/// All case studies in presentation order.
const std::vector<CaseStudy> &allCaseStudies();

/// One fully specified design point.
struct SystemConfig {
  std::string Name = "custom";
  AddressSpaceKind AddrSpace = AddressSpaceKind::Unified;
  ConnectionKind Connection = ConnectionKind::None;
  LocalityScheme Locality;

  /// Copies overlap with computation (GMAC's DMA engine).
  bool AsyncCopies = false;
  /// Ownership acquire/release commands are issued (LRB model).
  bool UseOwnership = false;
  /// First GPU touch of freshly shared pages faults (lib-pf).
  bool FirstTouchFaults = false;
  /// Communication mechanisms are free except for their instructions
  /// (Figure 7's "ideal communication overhead").
  bool IdealComm = false;

  /// Run parallel phases with time-interleaved CPU/GPU slices so the two
  /// PUs contend for shared uncore state (L3, NoC, DRAM) in temporal
  /// order, instead of the default CPU-segment-then-GPU-segment pass.
  /// Slightly slower to simulate; use for contention studies.
  bool InterleavedContention = false;

  /// Records per interleaving slice.
  unsigned ContentionSliceRecords = 4096;

  /// Fraction of each parallel round's work executed by the CPU. The
  /// paper divides the work evenly (0.5) and defers optimal partitioning
  /// to Qilin [25]; sweeping this reproduces that study's effect. At 0.5
  /// the Table III instruction counts are used verbatim; other values
  /// scale the per-PU budgets proportionally.
  double CpuWorkFraction = 0.5;

  CpuConfig Cpu;
  GpuConfig Gpu;
  MemHierConfig Hier;
  CommParams Comm;

  /// Builds the preset for \p Study, applying \p Overrides (e.g.
  /// "comm.api_pci_base=1000") last.
  static SystemConfig forCaseStudy(CaseStudy Study,
                                   const ConfigStore &Overrides = {});

  /// Builds the Figure 7 configuration for \p Kind: the given address
  /// space with a shared cache and ideal communication.
  static SystemConfig forAddressSpaceStudy(AddressSpaceKind Kind,
                                           const ConfigStore &Overrides = {});

  /// A Sandy-Bridge-style design (Table I): disjoint address spaces, the
  /// memory-controller connection, but a *shared last-level cache* —
  /// Section II-A2's point that a disjoint space can still share the
  /// cache "for better resource management". Not part of the paper's five
  /// case studies; used by the shared-LLC ablation.
  static SystemConfig sandyBridgeStyle(const ConfigStore &Overrides = {});

  /// Applies every key in \p Overrides through the key table in
  /// SystemConfig.cpp; fields whose keys are absent keep their values,
  /// so applying two stores in turn composes. An unknown key, a value of
  /// the wrong type or a value no simulator can be built from prints an
  /// error and exits with status 2.
  void applyOverrides(const ConfigStore &Overrides);

  /// Names of every key applyOverrides accepts, in table order.
  static std::vector<std::string> configKeys();
};

/// Builds the system called \p Name with \p Overrides applied: a case
/// study by caseStudyName() or a Figure 7 address space by
/// addressSpaceShortName(). Returns false for an unknown name.
bool systemByName(const std::string &Name, SystemConfig &Out,
                  const ConfigStore &Overrides);

} // namespace hetsim

#endif // HETSIM_CORE_SYSTEMCONFIG_H
