//===- memory/PageTable.h - Per-PU page tables ------------------*- C++ -*-===//
///
/// \file
/// Per-PU page tables. Section II-A1: a virtually unified address space
/// maps one virtual address to different physical addresses on each PU, and
/// each PU may use its own page size (GPUs use large pages for stream
/// locality) and its own table format. Partially shared spaces must keep
/// mappings in both tables (Section II-A3).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_PAGETABLE_H
#define HETSIM_MEMORY_PAGETABLE_H

#include "common/FlatMap.h"
#include "common/HostLine.h"
#include "common/Types.h"

#include <optional>
#include <string>

namespace hetsim {

/// A bump allocator over one physical memory device (CPU DRAM, GPU DRAM,
/// or a single unified DRAM).
class alignas(HostLineBytes) PhysicalMemory {
public:
  PhysicalMemory(std::string DeviceName, uint64_t Capacity)
      : Name(std::move(DeviceName)), SizeBytes(Capacity) {}

  /// Allocates \p Bytes aligned to \p Align; aborts when exhausted (the
  /// simulator sizes devices generously; exhaustion is a setup bug).
  Addr allocate(uint64_t Bytes, uint64_t Align);

  uint64_t allocatedBytes() const { return Cursor; }
  uint64_t sizeBytes() const { return SizeBytes; }
  const std::string &name() const { return Name; }

private:
  std::string Name;
  uint64_t SizeBytes;
  uint64_t Cursor = 0;
};

/// One PU's page table: VPN -> PPN at a fixed page size.
class alignas(HostLineBytes) PageTable {
public:
  /// \p PageBytes must be a valid page size (4KB CPU, 64KB GPU by default).
  PageTable(PuKind Owner, uint64_t PageBytes);

  /// True for the page sizes a page table takes: powers of two of at
  /// least 512 bytes.
  static bool isValidPageSize(uint64_t Bytes) {
    return isPowerOf2(Bytes) && Bytes >= 512;
  }

  PuKind owner() const { return Owner; }
  uint64_t pageBytes() const { return PageBytes; }

  /// Maps the virtual range [VBase, VBase+Bytes) to physical pages
  /// allocated from \p Device. Ranges are rounded out to page boundaries;
  /// already-mapped pages are left untouched.
  void mapRange(Addr VBase, uint64_t Bytes, PhysicalMemory &Device);

  /// The frame (physical page base) of \p VAddr's page; std::nullopt
  /// means a (hard) page-table miss. One open-addressed probe: the memory
  /// system walks the table only on a TLB miss, since TLB entries carry
  /// their frames.
  std::optional<Addr> frameOf(Addr VAddr) const {
    const Addr *Frame = Map.find(vpnOf(VAddr));
    if (!Frame)
      return std::nullopt;
    return *Frame;
  }

  /// Translates \p VAddr; std::nullopt means a (hard) page-table miss.
  std::optional<Addr> translate(Addr VAddr) const {
    std::optional<Addr> Frame = frameOf(VAddr);
    if (!Frame)
      return std::nullopt;
    return *Frame + (VAddr & (PageBytes - 1));
  }

  /// Removes mappings overlapping [VBase, VBase+Bytes).
  void unmapRange(Addr VBase, uint64_t Bytes);

  /// Number of mapped pages.
  size_t mappedPages() const { return Map.size(); }

private:
  uint64_t vpnOf(Addr VAddr) const { return VAddr >> PageShift; }

  PuKind Owner;
  uint64_t PageBytes;
  unsigned PageShift;
  FlatU64Map<Addr> Map; // VPN -> physical page base.
};

} // namespace hetsim

#endif // HETSIM_MEMORY_PAGETABLE_H
