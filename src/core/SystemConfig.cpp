//===- core/SystemConfig.cpp ----------------------------------------------===//

#include "core/SystemConfig.h"

#include "common/Error.h"
#include "common/Units.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

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

namespace {

/// The override being applied: its key and the store holding its value.
/// The accessors parse the value with the store's typed getters, so a
/// value of the wrong type exits 2 (rejectConfigValue()).
struct KeyValue {
  const ConfigStore &Store;
  const std::string &Key;

  uint64_t asUInt() const { return Store.getUInt(Key, 0); }
  double asDouble() const { return Store.getDouble(Key, 0.0); }
  bool asBool() const { return Store.getBool(Key, false); }
  /// Rejects a well-typed value that no simulator can be built from.
  [[noreturn]] void reject(const char *Type) const {
    rejectConfigValue(Key, Store.getString(Key, ""), Type);
  }
};

/// A rate: zero, negative or non-finite ones would make transfers free or
/// endless.
double positiveRate(const KeyValue &V) {
  double Rate = V.asDouble();
  if (!(Rate > 0.0 && std::isfinite(Rate)))
    V.reject("rate (a positive finite number)");
  return Rate;
}

uint64_t pageSize(const KeyValue &V) {
  uint64_t Bytes = V.asUInt();
  if (!PageTable::isValidPageSize(Bytes))
    V.reject("page size (a power of two, at least 512)");
  return Bytes;
}

/// One config key: its name and how its value is parsed, checked and
/// assigned. docs/CONFIG_KEYS.md documents exactly these rows.
struct ConfigKey {
  const char *Name;
  void (*Apply)(SystemConfig &C, const KeyValue &V);
};

const ConfigKey ConfigKeys[] = {
    // Table IV communication costs.
    {"comm.api_pci_base",
     [](auto &C, auto &V) { C.Comm.ApiPciBase = V.asUInt(); }},
    {"comm.pci_bytes_per_sec",
     [](auto &C, auto &V) { C.Comm.PciBytesPerSec = positiveRate(V); }},
    {"comm.api_acq", [](auto &C, auto &V) { C.Comm.ApiAcquire = V.asUInt(); }},
    {"comm.api_tr", [](auto &C, auto &V) { C.Comm.ApiTransfer = V.asUInt(); }},
    {"comm.lib_pf", [](auto &C, auto &V) { C.Comm.LibPageFault = V.asUInt(); }},
    {"comm.async_issue",
     [](auto &C, auto &V) { C.Comm.AsyncIssueOverhead = V.asUInt(); }},
    {"comm.pinned_host",
     [](auto &C, auto &V) { C.Comm.PinnedHostMemory = V.asBool(); }},
    {"comm.pageable_rate_factor",
     [](auto &C, auto &V) { C.Comm.PageableRateFactor = positiveRate(V); }},
    {"comm.pageable_staging",
     [](auto &C, auto &V) { C.Comm.PageableStagingOverhead = V.asUInt(); }},
    // Memory system.
    {"mem.tlb_miss_penalty",
     [](auto &C, auto &V) { C.Hier.TlbMissPenalty = V.asUInt(); }},
    {"mem.cpu_page_bytes",
     [](auto &C, auto &V) { C.Hier.CpuPageBytes = pageSize(V); }},
    {"mem.gpu_page_bytes",
     [](auto &C, auto &V) { C.Hier.GpuPageBytes = pageSize(V); }},
    {"mem.l3_bytes",
     [](auto &C, auto &V) {
       C.Hier.L3.SizeBytes = V.asUInt();
       if (!C.Hier.L3.isValid())
         V.reject("L3 size (a power-of-two number of sets)");
     }},
    {"mem.l2_prefetch",
     [](auto &C, auto &V) { C.Hier.EnableL2Prefetch = V.asBool(); }},
    {"mem.prefetch_degree",
     [](auto &C, auto &V) { C.Hier.Prefetch.Degree = unsigned(V.asUInt()); }},
    {"mem.noc",
     [](auto &C, auto &V) {
       const std::string Noc = V.Store.getString(V.Key, "");
       if (Noc != "ring" && Noc != "mesh")
         V.reject("NoC topology (ring or mesh)");
       C.Hier.UseMeshNoc = Noc == "mesh";
     }},
    // Core models.
    {"cpu.rob_entries",
     [](auto &C, auto &V) {
       const uint64_t Rob = V.asUInt();
       if (Rob == 0 || Rob != unsigned(Rob))
         V.reject("ROB size (a positive 32-bit integer)");
       C.Cpu.RobEntries = unsigned(Rob);
     }},
    {"cpu.mispredict_penalty",
     [](auto &C, auto &V) { C.Cpu.MispredictPenalty = V.asUInt(); }},
    {"gpu.branch_stall",
     [](auto &C, auto &V) { C.Gpu.BranchStall = V.asUInt(); }},
    // System / driver.
    {"sys.ideal_comm", [](auto &C, auto &V) { C.IdealComm = V.asBool(); }},
    {"sys.first_touch_faults",
     [](auto &C, auto &V) { C.FirstTouchFaults = V.asBool(); }},
    {"sys.interleaved_contention",
     [](auto &C, auto &V) { C.InterleavedContention = V.asBool(); }},
    {"sys.cpu_work_fraction",
     [](auto &C, auto &V) {
       C.CpuWorkFraction = V.asDouble();
       if (!(C.CpuWorkFraction >= 0.0 && C.CpuWorkFraction <= 1.0))
         V.reject("fraction in [0, 1]");
     }},
};

} // namespace

std::vector<std::string> SystemConfig::configKeys() {
  std::vector<std::string> Names;
  for (const ConfigKey &Row : ConfigKeys)
    Names.push_back(Row.Name);
  return Names;
}

void SystemConfig::applyOverrides(const ConfigStore &Overrides) {
  for (const std::string &Key : Overrides.keys()) {
    const ConfigKey *Row =
        std::find_if(std::begin(ConfigKeys), std::end(ConfigKeys),
                     [&](const ConfigKey &R) { return Key == R.Name; });
    if (Row == std::end(ConfigKeys)) {
      std::fprintf(stderr,
                   "error: unknown config key '%s' (docs/CONFIG_KEYS.md "
                   "lists every key)\n",
                   Key.c_str());
      std::exit(2);
    }
    Row->Apply(*this, KeyValue{Overrides, Key});
  }

  // The effective PCI-E rate depends on up to three keys, so it is
  // checked once all are applied: at a rate where a transfer of a whole
  // device overflows a cycle count, transferCycles() would abort mid-run.
  const double Rate = Comm.PinnedHostMemory
                          ? Comm.PciBytesPerSec
                          : Comm.PciBytesPerSec * Comm.PageableRateFactor;
  if (!transferCyclesFit(PuKind::Cpu, Hier.DeviceBytes, Rate)) {
    // Blame the factor when the plain rate alone would have fit.
    const bool FactorAtFault =
        !Comm.PinnedHostMemory &&
        !Overrides.getString("comm.pageable_rate_factor", "").empty() &&
        transferCyclesFit(PuKind::Cpu, Hier.DeviceBytes, Comm.PciBytesPerSec);
    const std::string Key = FactorAtFault ? "comm.pageable_rate_factor"
                                          : "comm.pci_bytes_per_sec";
    KeyValue{Overrides, Key}.reject(
        "rate (too small: the effective PCI-E rate must carry a whole "
        "device's bytes in a 64-bit cycle count, see docs/CONFIG_KEYS.md)");
  }
}

bool hetsim::systemByName(const std::string &Name, SystemConfig &Out,
                          const ConfigStore &Overrides) {
  for (CaseStudy Study : allCaseStudies()) {
    if (Name == caseStudyName(Study)) {
      Out = SystemConfig::forCaseStudy(Study, Overrides);
      return true;
    }
  }
  static const AddressSpaceKind Kinds[] = {
      AddressSpaceKind::Unified, AddressSpaceKind::PartiallyShared,
      AddressSpaceKind::Disjoint, AddressSpaceKind::Adsm};
  for (AddressSpaceKind Kind : Kinds) {
    if (Name == addressSpaceShortName(Kind)) {
      Out = SystemConfig::forAddressSpaceStudy(Kind, Overrides);
      return true;
    }
  }
  return false;
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
