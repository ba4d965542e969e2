//===- memory/Tlb.h - Translation lookaside buffer --------------*- C++ -*-===//
///
/// \file
/// A set-associative TLB. Section II-A1 notes that different page-table
/// formats per PU complicate TLB and MMU design; here each PU's TLB uses
/// its own page size, and larger GPU pages directly reduce GPU TLB misses.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_TLB_H
#define HETSIM_MEMORY_TLB_H

#include "common/Types.h"

#include <vector>

namespace hetsim {

/// TLB statistics.
struct TlbStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  double hitRate() const {
    return Lookups == 0 ? 0.0 : double(Hits) / double(Lookups);
  }
};

/// A set-associative LRU TLB over virtual page numbers.
class Tlb {
public:
  Tlb(unsigned Entries, unsigned Ways, uint64_t PageBytes);

  /// Looks \p VAddr up, filling on a miss; returns true on a hit. Inline:
  /// every memory access translates. Consecutive accesses mostly stay on
  /// one page, so the entry that served the previous lookup is checked
  /// before the set is scanned; a page is resident in at most one way, so
  /// this finds the same entry the scan would.
  bool lookup(Addr VAddr) {
    ++Stats.Lookups;
    const uint64_t Vpn = VAddr >> PageShift;
    size_t Hit = LastIndex;
    if (!(Entries[Hit].Valid && Entries[Hit].Vpn == Vpn)) {
      const size_t SetBase = size_t(Vpn & (NumSets - 1)) * Ways;
      Hit = SetBase;
      while (Hit != SetBase + Ways &&
             !(Entries[Hit].Valid && Entries[Hit].Vpn == Vpn))
        ++Hit;
      if (Hit == SetBase + Ways) {
        fill(SetBase, Vpn);
        return false;
      }
      LastIndex = Hit;
    }
    ++Stats.Hits;
    Entries[Hit].Stamp = NextStamp++;
    return true;
  }

  /// Invalidates all entries (e.g. after remapping).
  void flush();

  const TlbStats &stats() const { return Stats; }
  uint64_t pageBytes() const { return PageBytes; }

private:
  struct Entry {
    uint64_t Vpn = 0;
    uint64_t Stamp = 0;
    bool Valid = false;
  };

  /// The miss path of lookup(): installs \p Vpn over the first invalid or
  /// least recently used way of the set at \p SetBase.
  void fill(size_t SetBase, uint64_t Vpn);

  unsigned NumSets;
  unsigned Ways;
  uint64_t PageBytes;
  unsigned PageShift;
  std::vector<Entry> Entries;
  /// The entry the previous lookup hit or filled.
  size_t LastIndex = 0;
  TlbStats Stats;
  uint64_t NextStamp = 1;
};

} // namespace hetsim

#endif // HETSIM_MEMORY_TLB_H
