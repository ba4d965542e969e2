//===- memory/AddressSpaceModel.cpp ---------------------------------------===//

#include "memory/AddressSpaceModel.h"

#include "common/Error.h"

using namespace hetsim;

const char *hetsim::addressSpaceShortName(AddressSpaceKind Kind) {
  switch (Kind) {
  case AddressSpaceKind::Unified:
    return "UNI";
  case AddressSpaceKind::Disjoint:
    return "DIS";
  case AddressSpaceKind::PartiallyShared:
    return "PAS";
  case AddressSpaceKind::Adsm:
    return "ADSM";
  }
  hetsim_unreachable("invalid address-space kind");
}

const char *hetsim::addressSpaceName(AddressSpaceKind Kind) {
  switch (Kind) {
  case AddressSpaceKind::Unified:
    return "unified";
  case AddressSpaceKind::Disjoint:
    return "disjoint";
  case AddressSpaceKind::PartiallyShared:
    return "partially shared";
  case AddressSpaceKind::Adsm:
    return "ADSM";
  }
  hetsim_unreachable("invalid address-space kind");
}

bool Placement::isShared(const std::string &Name) const {
  for (const std::string &S : SharedObjects)
    if (S == Name)
      return true;
  return false;
}

Placement hetsim::placeObjects(AddressSpaceKind Kind,
                               const std::vector<DataObjectSpec> &Objects) {
  Placement P;
  if (Kind == AddressSpaceKind::Disjoint) {
    // Objects live in CPU space; the GPU computes on duplicated copies in
    // its own space (the gpu_a/gpu_b/gpu_c pointers of Figure 3a).
    P.CpuLayout =
        KernelDataLayout::makeLinear(Objects, region::CpuPrivateBase);
    P.GpuLayout =
        KernelDataLayout::makeLinear(Objects, region::GpuPrivateBase);
    P.DuplicatedBytes = P.GpuLayout.totalBytes();
    return P;
  }
  // Unified (one space, Section II-A1), partially shared (transferable
  // objects carry the `shared` qualifier, II-A3) and ADSM (identical
  // virtual ranges over GPU-resident shared objects, II-A4) all place
  // every object in the shared region at the same address for both PUs.
  P.CpuLayout = KernelDataLayout::makeLinear(Objects, region::SharedBase);
  P.GpuLayout = P.CpuLayout;
  for (const DataObjectSpec &Spec : Objects)
    P.SharedObjects.push_back(Spec.Name);
  return P;
}

bool hetsim::canAccess(AddressSpaceKind Kind, PuKind Pu, MemRegion Region) {
  switch (Kind) {
  case AddressSpaceKind::Unified:
  case AddressSpaceKind::PartiallyShared:
    return true;
  case AddressSpaceKind::Disjoint:
    // Strictly private spaces; no shared region exists.
    return Region == (Pu == PuKind::Cpu ? MemRegion::CpuPrivate
                                        : MemRegion::GpuPrivate);
  case AddressSpaceKind::Adsm:
    // The CPU can access the entire memory space; the GPU only its own
    // and the shared space.
    return Pu == PuKind::Cpu || Region == MemRegion::GpuPrivate ||
           Region == MemRegion::Shared;
  }
  hetsim_unreachable("invalid address-space kind");
}
