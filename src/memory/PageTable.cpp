//===- memory/PageTable.cpp -----------------------------------------------===//

#include "memory/PageTable.h"

#include "common/Error.h"

#include <cassert>

using namespace hetsim;

Addr PhysicalMemory::allocate(uint64_t Bytes, uint64_t Align) {
  assert(isPowerOf2(Align) && "alignment must be a power of two");
  uint64_t Base = alignUp(Cursor, Align);
  if (Base + Bytes > SizeBytes)
    fatalError(("physical memory exhausted: " + Name).c_str());
  Cursor = Base + Bytes;
  return Base;
}

PageTable::PageTable(PuKind OwningPu, uint64_t PageSize)
    : Owner(OwningPu), PageBytes(PageSize), PageShift(log2Exact(PageSize)) {
  if (!isValidPageSize(PageSize))
    fatalError("invalid page size");
}

void PageTable::mapRange(Addr VBase, uint64_t Bytes, PhysicalMemory &Device) {
  if (Bytes == 0)
    return;
  uint64_t FirstVpn = vpnOf(VBase);
  uint64_t LastVpn = vpnOf(VBase + Bytes - 1);
  for (uint64_t Vpn = FirstVpn; Vpn <= LastVpn; ++Vpn) {
    if (Map.contains(Vpn))
      continue;
    Map[Vpn] = Device.allocate(PageBytes, PageBytes);
  }
}

void PageTable::unmapRange(Addr VBase, uint64_t Bytes) {
  if (Bytes == 0)
    return;
  for (uint64_t Vpn = vpnOf(VBase), End = vpnOf(VBase + Bytes - 1);
       Vpn <= End; ++Vpn)
    Map.erase(Vpn);
}
