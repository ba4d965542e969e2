//===- core/SystemConfig.cpp ----------------------------------------------===//

#include "core/SystemConfig.h"

#include "common/Error.h"

using namespace hetsim;

const char *hetsim::caseStudyName(CaseStudy Study) {
  switch (Study) {
  case CaseStudy::CpuGpu:
    return "CPU+GPU";
  case CaseStudy::Lrb:
    return "LRB";
  case CaseStudy::Gmac:
    return "GMAC";
  case CaseStudy::Fusion:
    return "Fusion";
  case CaseStudy::IdealHetero:
    return "IDEAL-HETERO";
  }
  hetsim_unreachable("invalid case study");
}

const std::vector<CaseStudy> &hetsim::allCaseStudies() {
  static const std::vector<CaseStudy> Studies = {
      CaseStudy::CpuGpu, CaseStudy::Lrb, CaseStudy::Gmac, CaseStudy::Fusion,
      CaseStudy::IdealHetero,
  };
  return Studies;
}

void SystemConfig::applyOverrides(const ConfigStore &Overrides) {
  // Rejects \p Key's value, which the simulator cannot build from.
  auto Reject = [&](const char *Key, const char *Type) {
    rejectConfigValue(Key, Overrides.getString(Key, ""), Type);
  };
  Comm = CommParams::fromConfig(Overrides);

  Hier.TlbMissPenalty =
      Overrides.getUInt("mem.tlb_miss_penalty", Hier.TlbMissPenalty);
  Hier.GpuPageBytes = Overrides.getUInt("mem.gpu_page_bytes",
                                        Hier.GpuPageBytes);
  if (!PageTable::isValidPageSize(Hier.GpuPageBytes))
    Reject("mem.gpu_page_bytes", "page size (a power of two, at least 512)");
  Hier.CpuPageBytes = Overrides.getUInt("mem.cpu_page_bytes",
                                        Hier.CpuPageBytes);
  if (!PageTable::isValidPageSize(Hier.CpuPageBytes))
    Reject("mem.cpu_page_bytes", "page size (a power of two, at least 512)");
  Hier.L3.SizeBytes = Overrides.getUInt("mem.l3_bytes", Hier.L3.SizeBytes);
  if (!Hier.L3.isValid())
    Reject("mem.l3_bytes", "L3 size (a power-of-two number of sets)");
  Hier.EnableL2Prefetch =
      Overrides.getBool("mem.l2_prefetch", Hier.EnableL2Prefetch);
  const std::string Noc = Overrides.getString("mem.noc", "ring");
  if (Noc == "mesh")
    Hier.UseMeshNoc = true;
  else if (Noc != "ring")
    Reject("mem.noc", "NoC topology (ring or mesh)");
  Hier.Prefetch.Degree = unsigned(
      Overrides.getUInt("mem.prefetch_degree", Hier.Prefetch.Degree));

  const uint64_t Rob = Overrides.getUInt("cpu.rob_entries", Cpu.RobEntries);
  if (Rob == 0 || Rob != unsigned(Rob))
    Reject("cpu.rob_entries", "ROB size (a positive 32-bit integer)");
  Cpu.RobEntries = unsigned(Rob);
  Cpu.MispredictPenalty =
      Overrides.getUInt("cpu.mispredict_penalty", Cpu.MispredictPenalty);
  Gpu.BranchStall = Overrides.getUInt("gpu.branch_stall", Gpu.BranchStall);

  if (Overrides.has("sys.ideal_comm"))
    IdealComm = Overrides.getBool("sys.ideal_comm", IdealComm);
  if (Overrides.has("sys.first_touch_faults"))
    FirstTouchFaults =
        Overrides.getBool("sys.first_touch_faults", FirstTouchFaults);
  if (Overrides.has("sys.async_copies"))
    AsyncCopies = Overrides.getBool("sys.async_copies", AsyncCopies);
  InterleavedContention = Overrides.getBool("sys.interleaved_contention",
                                            InterleavedContention);
  if (Overrides.has("sys.cpu_work_fraction")) {
    CpuWorkFraction = Overrides.getDouble("sys.cpu_work_fraction", 0.0);
    if (!(CpuWorkFraction >= 0.0 && CpuWorkFraction <= 1.0))
      Reject("sys.cpu_work_fraction", "fraction in [0, 1]");
  }
}

SystemConfig SystemConfig::forCaseStudy(CaseStudy Study,
                                        const ConfigStore &Overrides) {
  // To isolate memory-system effects, all five systems share identical
  // CPUs and GPUs (Section V-A); only the memory organization differs.
  SystemConfig C;
  C.Name = caseStudyName(Study);

  switch (Study) {
  case CaseStudy::CpuGpu:
    // Discrete GPU over PCI-E; two private hierarchies, two memories.
    C.AddrSpace = AddressSpaceKind::Disjoint;
    C.Connection = ConnectionKind::PciExpress;
    C.Hier.SeparateGpuDram = true;
    C.Hier.GpuSharesL3 = false;
    C.Locality = {LocalityMgmt::Implicit, LocalityMgmt::Explicit,
                  SharedLocality::NoSharedLevel};
    break;

  case CaseStudy::Lrb:
    // Partially shared space through the PCI aperture with ownership and
    // first-touch page faults (Section V-A).
    C.AddrSpace = AddressSpaceKind::PartiallyShared;
    C.Connection = ConnectionKind::PciExpress;
    C.Hier.SeparateGpuDram = true;
    C.Hier.GpuSharesL3 = false;
    C.UseOwnership = true;
    C.FirstTouchFaults = true;
    C.Locality = {LocalityMgmt::Implicit, LocalityMgmt::Implicit,
                  SharedLocality::Implicit};
    break;

  case CaseStudy::Gmac:
    // ADSM over PCI-E; asynchronous copies hide communication.
    C.AddrSpace = AddressSpaceKind::Adsm;
    C.Connection = ConnectionKind::PciExpress;
    C.Hier.SeparateGpuDram = true;
    C.Hier.GpuSharesL3 = false;
    C.AsyncCopies = true;
    C.Locality = {LocalityMgmt::Explicit, LocalityMgmt::Implicit,
                  SharedLocality::Implicit};
    break;

  case CaseStudy::Fusion:
    // Disjoint spaces in one package: transfers go through the memory
    // controllers of a single shared DRAM.
    C.AddrSpace = AddressSpaceKind::Disjoint;
    C.Connection = ConnectionKind::MemoryController;
    C.Hier.SeparateGpuDram = false;
    C.Hier.GpuSharesL3 = false;
    C.Locality = {LocalityMgmt::Implicit, LocalityMgmt::Explicit,
                  SharedLocality::NoSharedLevel};
    break;

  case CaseStudy::IdealHetero:
    // Unified, fully coherent, shared LLC; communication is free.
    C.AddrSpace = AddressSpaceKind::Unified;
    C.Connection = ConnectionKind::None;
    C.Hier.SeparateGpuDram = false;
    C.Hier.GpuSharesL3 = true;
    C.Hier.HwCoherence = true;
    C.IdealComm = true;
    C.Locality = {LocalityMgmt::Implicit, LocalityMgmt::Implicit,
                  SharedLocality::Implicit};
    break;
  }

  C.applyOverrides(Overrides);
  return C;
}

SystemConfig SystemConfig::sandyBridgeStyle(const ConfigStore &Overrides) {
  SystemConfig C = forCaseStudy(CaseStudy::Fusion);
  C.Name = "SandyBridge-style";
  C.Hier.GpuSharesL3 = true; // Disjoint spaces, shared LLC (II-A2).
  C.applyOverrides(Overrides);
  return C;
}

SystemConfig
SystemConfig::forAddressSpaceStudy(AddressSpaceKind Kind,
                                   const ConfigStore &Overrides) {
  // Figure 7's setup: "we assume that all the systems share the cache"
  // and communication overhead is ideal — only the extra data-handling
  // instructions remain.
  SystemConfig C;
  C.Name = addressSpaceShortName(Kind);
  C.AddrSpace = Kind;
  C.Connection = ConnectionKind::None;
  C.Hier.SeparateGpuDram = false;
  C.Hier.GpuSharesL3 = true;
  C.IdealComm = true;
  C.UseOwnership = Kind == AddressSpaceKind::PartiallyShared;
  C.Locality = {LocalityMgmt::Implicit, LocalityMgmt::Implicit,
                SharedLocality::Implicit};
  C.applyOverrides(Overrides);
  return C;
}
