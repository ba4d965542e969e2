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

AddressSpaceModel::~AddressSpaceModel() = default;

bool AddressSpaceModel::canAccess(PuKind, MemRegion) const { return true; }

bool AddressSpaceModel::needsExplicitTransfer() const { return false; }

bool AddressSpaceModel::supportsOwnership() const { return false; }

const AddressSpaceModel &AddressSpaceModel::forKind(AddressSpaceKind Kind) {
  static const UnifiedAddressSpace Unified;
  static const DisjointAddressSpace Disjoint;
  static const PartiallySharedAddressSpace PartiallyShared;
  static const AdsmAddressSpace Adsm;
  switch (Kind) {
  case AddressSpaceKind::Unified:
    return Unified;
  case AddressSpaceKind::Disjoint:
    return Disjoint;
  case AddressSpaceKind::PartiallyShared:
    return PartiallyShared;
  case AddressSpaceKind::Adsm:
    return Adsm;
  }
  hetsim_unreachable("invalid address-space kind");
}

//===----------------------------------------------------------------------===//
// Unified: one space; any task can run on any PU without explicit data
// transfer commands (Section II-A1). We place everything in the shared
// region; both layouts are identical.
//===----------------------------------------------------------------------===//

Placement UnifiedAddressSpace::placeObjects(
    const std::vector<DataObjectSpec> &Objects) const {
  Placement P;
  P.Kind = AddressSpaceKind::Unified;
  P.CpuLayout = KernelDataLayout::makeLinear(Objects, region::SharedBase);
  P.GpuLayout = P.CpuLayout;
  for (const DataObjectSpec &Spec : Objects)
    P.SharedObjects.push_back(Spec.Name);
  return P;
}

//===----------------------------------------------------------------------===//
// Disjoint: objects live in CPU space; the GPU computes on duplicated
// copies in its own space (the gpu_a/gpu_b/gpu_c pointers of Figure 3a).
//===----------------------------------------------------------------------===//

Placement DisjointAddressSpace::placeObjects(
    const std::vector<DataObjectSpec> &Objects) const {
  Placement P;
  P.Kind = AddressSpaceKind::Disjoint;
  P.CpuLayout = KernelDataLayout::makeLinear(Objects, region::CpuPrivateBase);
  P.GpuLayout = KernelDataLayout::makeLinear(Objects, region::GpuPrivateBase);
  P.DuplicatedBytes = P.GpuLayout.totalBytes();
  return P;
}

bool DisjointAddressSpace::canAccess(PuKind Pu, MemRegion Region) const {
  switch (Region) {
  case MemRegion::CpuPrivate:
    return Pu == PuKind::Cpu;
  case MemRegion::GpuPrivate:
    return Pu == PuKind::Gpu;
  case MemRegion::Shared:
    return false; // No shared region exists in a disjoint space.
  case MemRegion::Unknown:
    return false;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Partially shared: transferable objects carry the `shared` type qualifier
// and live in the shared region at the same address for both PUs; other
// data stays private (Section II-A3).
//===----------------------------------------------------------------------===//

Placement PartiallySharedAddressSpace::placeObjects(
    const std::vector<DataObjectSpec> &Objects) const {
  Placement P;
  P.Kind = AddressSpaceKind::PartiallyShared;
  P.CpuLayout = KernelDataLayout::makeLinear(Objects, region::SharedBase);
  P.GpuLayout = P.CpuLayout;
  for (const DataObjectSpec &Spec : Objects)
    P.SharedObjects.push_back(Spec.Name);
  return P;
}

//===----------------------------------------------------------------------===//
// ADSM: identical virtual ranges in both PUs over the shared objects,
// physically resident on the GPU side; the CPU may access everything, the
// GPU only its private and shared space (Section II-A4).
//===----------------------------------------------------------------------===//

Placement AdsmAddressSpace::placeObjects(
    const std::vector<DataObjectSpec> &Objects) const {
  Placement P;
  P.Kind = AddressSpaceKind::Adsm;
  P.CpuLayout = KernelDataLayout::makeLinear(Objects, region::SharedBase);
  P.GpuLayout = P.CpuLayout;
  for (const DataObjectSpec &Spec : Objects)
    P.SharedObjects.push_back(Spec.Name);
  return P;
}

bool AdsmAddressSpace::canAccess(PuKind Pu, MemRegion Region) const {
  if (Pu == PuKind::Cpu)
    return true; // The CPU can access the entire memory space.
  return Region == MemRegion::GpuPrivate || Region == MemRegion::Shared;
}
