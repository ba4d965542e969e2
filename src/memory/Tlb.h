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

#include "common/HostLine.h"
#include "common/Types.h"

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

/// A set-associative LRU TLB over virtual page numbers. Each entry
/// carries its page's frame (physical page base), so a hit translates
/// without the page table. The owner keeps the frames current: only a
/// remap changes an existing mapping, and it flushes the TLB.
class alignas(HostLineBytes) Tlb {
public:
  Tlb(unsigned Entries, unsigned Ways, uint64_t PageBytes);

  /// Looks \p VAddr up. On a hit returns true and sets \p Frame to the
  /// entry's frame; on a miss returns false, and the caller walks the page
  /// table and installs the frame with fill(). Inline: every memory access
  /// translates. Accesses mostly stay on one page or alternate between two
  /// (matrix multiply's A and B), so the entries the last two lookups used
  /// are checked before the set is scanned; a page is resident in at most
  /// one way, so this finds the same entry the scan would.
  bool lookup(Addr VAddr, Addr &Frame) {
    ++Stats.Lookups;
    const uint64_t Vpn = VAddr >> PageShift;
    size_t Hit = Recent[0];
    if (Vpns[Hit] != Vpn) {
      Hit = Recent[1];
      if (Vpns[Hit] != Vpn) {
        const size_t SetBase = size_t(Vpn & (NumSets - 1)) * Ways;
        Hit = SetBase;
        while (Hit != SetBase + Ways && Vpns[Hit] != Vpn)
          ++Hit;
        if (Hit == SetBase + Ways)
          return false;
      }
      Recent[1] = Recent[0];
      Recent[0] = Hit;
    }
    ++Stats.Hits;
    Stamps[Hit] = NextStamp++;
    Frame = Frames[Hit];
    return true;
  }

  /// Looks \p VAddr up, filling on a miss with no frame; returns true on
  /// a hit. For callers that model only hits and misses.
  bool lookup(Addr VAddr) {
    Addr Frame = 0;
    if (lookup(VAddr, Frame))
      return true;
    fill(VAddr, 0);
    return false;
  }

  /// The miss path: installs \p Frame for \p VAddr's page over the first
  /// invalid or least recently used way of its set.
  void fill(Addr VAddr, Addr Frame);

  /// Invalidates all entries (e.g. after remapping).
  void flush();

  const TlbStats &stats() const { return Stats; }
  uint64_t pageBytes() const { return PageBytes; }

private:
  /// The VPN of an invalid entry. Pages hold at least two bytes, so no
  /// address shifts down to it.
  static constexpr uint64_t InvalidVpn = ~uint64_t(0);

  unsigned NumSets;
  unsigned Ways;
  uint64_t PageBytes;
  unsigned PageShift;
  // Per-entry state, one array per field, Sets x Ways row-major: a lookup
  // scans only VPNs.
  HostLineVector<uint64_t> Vpns; ///< InvalidVpn for an invalid entry.
  HostLineVector<Addr> Frames;
  HostLineVector<uint64_t> Stamps; ///< Last use, for LRU.
  /// The entries the last two lookups hit or filled, most recent first.
  size_t Recent[2] = {0, 0};
  TlbStats Stats;
  uint64_t NextStamp = 1;
};

} // namespace hetsim

#endif // HETSIM_MEMORY_TLB_H
