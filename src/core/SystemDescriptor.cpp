//===- core/SystemDescriptor.cpp ------------------------------------------===//

#include "core/SystemDescriptor.h"

using namespace hetsim;

const std::vector<SystemDescriptor> &hetsim::tableOneSurvey() {
  using AS = AddressSpaceKind;
  using CN = ConnectionKind;
  using CH = CoherenceKind;
  using CS = ConsistencyKind;
  static const std::vector<SystemDescriptor> Rows = {
      {"CPU+CUDA*", AS::Disjoint, CN::PciExpress, CH::None, "NA", CS::Weak,
       "-", "impl-pri-expl-pri"},
      {"EXOCHI", AS::Unified, CN::MemoryController, CH::Possible,
       "CHI runtime API", CS::Weak, "unknown", "impl-pri"},
      {"CPU+LRB", AS::PartiallyShared, CN::PciExpress, CH::OneSideOnly,
       "type qualifier, ownership", CS::Weak, "APIs", "impl-pri"},
      {"COMIC", AS::Unified, CN::Interconnection, CH::HardwareDirectory,
       "COMIC API functions", CS::CentralizedRelease, "barrier function",
       "expl-pri-impl-pri-impl-shared"},
      {"Rigel", AS::Unified, CN::Interconnection, CH::HardwareOrSoftware,
       "global memory operation", CS::Weak, "implicit barrier/Rigel LPI",
       "expl"},
      {"GMAC", AS::Adsm, CN::PciExpress, CH::RuntimeProtocol,
       "global memory operation", CS::Weak, "sync API",
       "expl-private-impl-shared"},
      {"Sandy Bridge", AS::Disjoint, CN::MemoryController, CH::None, "-",
       CS::Weak, "-", "impl-priv-exp-priv"},
      {"Fusion", AS::Disjoint, CN::MemoryController, CH::None, "-",
       CS::Unspecified, "-", "-"},
      {"IBM Cell", AS::Disjoint, CN::Interconnection, CH::None, "-",
       CS::Weak, "-", "expl-pri-impl-priv-impl-shared"},
      {"Xbox 360", AS::Disjoint, CN::CacheFsb, CH::None,
       "Lock-set cache, copy", CS::Unspecified, "-", "impl-priv-exp-shared"},
      {"CUBA", AS::Disjoint, CN::Bus, CH::None,
       "direct access to local storage", CS::Weak, "-", "exp-priv"},
      {"CUDA 4.0", AS::Unified, CN::None, CH::None, "explicit copy",
       CS::Weak, "-", "exp-priv"},
      {"OpenCL", AS::Unified, CN::None, CH::None, "explicit copy", CS::Weak,
       "-", "exp-priv"},
  };
  return Rows;
}

unsigned hetsim::surveyCount(AddressSpaceKind Kind) {
  unsigned Count = 0;
  for (const SystemDescriptor &Row : tableOneSurvey())
    if (Row.AddrSpace == Kind)
      ++Count;
  return Count;
}

bool hetsim::surveyHasUnifiedFullyCoherentStrong() {
  for (const SystemDescriptor &Row : tableOneSurvey()) {
    if (Row.AddrSpace == AddressSpaceKind::Unified &&
        Row.Coherence == CoherenceKind::HardwareDirectory &&
        Row.Consistency == ConsistencyKind::Strong)
      return true;
  }
  return false;
}
