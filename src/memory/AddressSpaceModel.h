//===- memory/AddressSpaceModel.h - The four address spaces -----*- C++ -*-===//
///
/// \file
/// The paper's four memory-address-space design options (Section II-A,
/// Figure 1): unified, disjoint, partially shared, and asymmetric
/// distributed shared memory (ADSM). The functions below decide, for each
/// kind, where a kernel's data objects live in each PU's virtual space,
/// which ranges are shared, and which accesses each PU is allowed to make.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_ADDRESSSPACEMODEL_H
#define HETSIM_MEMORY_ADDRESSSPACEMODEL_H

#include "trace/DataLayout.h"

#include <string>
#include <vector>

namespace hetsim {

/// The four design options of Figure 1.
enum class AddressSpaceKind : uint8_t {
  Unified = 0,
  Disjoint,
  PartiallyShared,
  Adsm,
};

/// Short display name ("UNI", "DIS", "PAS", "ADSM") used by Figure 7 and
/// Table V.
const char *addressSpaceShortName(AddressSpaceKind Kind);

/// Full display name ("unified", "disjoint", ...).
const char *addressSpaceName(AddressSpaceKind Kind);

/// Virtual-address region bases. Regions are disjoint so a segment's
/// region is recoverable from any address inside it.
namespace region {
inline constexpr Addr CpuPrivateBase = 0x10000000ull;
inline constexpr Addr GpuPrivateBase = 0x50000000ull;
inline constexpr Addr SharedBase = 0x90000000ull;
inline constexpr uint64_t RegionSpan = 0x40000000ull;
} // namespace region

/// Which region an address belongs to.
enum class MemRegion : uint8_t { CpuPrivate, GpuPrivate, Shared, Unknown };
inline constexpr unsigned NumMemRegions = 4;

/// Classifies \p Address into a region (inline: every access asks).
inline MemRegion regionOf(Addr Address) {
  if (Address - region::CpuPrivateBase < region::RegionSpan)
    return MemRegion::CpuPrivate;
  if (Address - region::GpuPrivateBase < region::RegionSpan)
    return MemRegion::GpuPrivate;
  if (Address - region::SharedBase < region::RegionSpan)
    return MemRegion::Shared;
  return MemRegion::Unknown;
}

/// The word diagnostics put before "region", indexed by MemRegion.
inline constexpr const char *MemRegionNames[NumMemRegions] = {
    "CPU-private", "GPU-private", "shared", "no"};

/// Where placeObjects put one kernel instance's data objects.
struct Placement {
  /// Addresses the CPU-side compute uses for each data object.
  KernelDataLayout CpuLayout;

  /// Addresses the GPU-side compute uses. Equal to CpuLayout except under
  /// the disjoint space, where objects are duplicated into GPU space.
  KernelDataLayout GpuLayout;

  /// Names of objects living in the shared region (empty for disjoint).
  std::vector<std::string> SharedObjects;

  /// Bytes duplicated into GPU private space (disjoint only).
  uint64_t DuplicatedBytes = 0;

  /// Returns true if the named object is in the shared region.
  bool isShared(const std::string &Name) const;
};

/// Places an arbitrary list of data objects under \p Kind's rules (custom
/// workloads use this directly).
Placement placeObjects(AddressSpaceKind Kind,
                       const std::vector<DataObjectSpec> &Objects);

/// Places \p Kernel's Table III data objects under \p Kind's rules.
inline Placement placeKernel(AddressSpaceKind Kind, KernelId Kernel) {
  return placeObjects(Kind, kernelDataObjects(Kernel));
}

/// True if \p Pu may access addresses in \p Region at all under \p Kind.
/// Under ADSM the GPU may only touch its private space and the shared
/// space; under disjoint each PU sees only its own space (Section II-A).
/// Every space decides by region alone, so the memory system asks once
/// per run, not per access.
bool canAccess(AddressSpaceKind Kind, PuKind Pu, MemRegion Region);

} // namespace hetsim

#endif // HETSIM_MEMORY_ADDRESSSPACEMODEL_H
