//===- cache/Scratchpad.h - Software-managed cache --------------*- C++ -*-===//
///
/// \file
/// The GPU's 16KB software-managed cache (Table II). Explicitly managed:
/// accesses are bounds-checked offsets with a fixed latency — there are no
/// misses, which is the defining property the locality-management
/// discussion (Section II-B) relies on.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CACHE_SCRATCHPAD_H
#define HETSIM_CACHE_SCRATCHPAD_H

#include "common/HostLine.h"
#include "common/Types.h"

#include <array>

namespace hetsim {

/// A fixed-latency explicitly-managed local store with banked access:
/// like Fermi's shared memory, the store has NumBanks word-interleaved
/// banks, and a warp access whose lanes collide on a bank serializes by
/// the conflict degree.
class alignas(HostLineBytes) Scratchpad {
public:
  Scratchpad(uint64_t Size, Cycle Latency, unsigned Banks = 16)
      : SizeBytes(Size), AccessLatency(Latency), NumBanks(Banks) {}

  /// Latency of a warp access: \p Lanes lanes starting at \p Offset with
  /// \p StrideBytes between lanes. Bank conflicts multiply the base
  /// latency by the worst per-bank collision count. Aborts on
  /// out-of-bounds offsets (an explicit-management bug in the client).
  /// Inline, with the memo hit of conflictDegree: every GPU scratchpad
  /// instruction calls it.
  Cycle warpAccess(Addr Offset, uint32_t BytesPerLane, unsigned Lanes,
                   uint32_t StrideBytes, bool IsWrite) {
    Addr Last = Offset + (Lanes > 0 ? (Lanes - 1) * Addr(StrideBytes) : 0) +
                BytesPerLane;
    if (Last > SizeBytes)
      outOfBounds();
    if (IsWrite)
      ++Writes;
    else
      ++Reads;
    unsigned Degree = conflictDegree(Offset, Lanes, StrideBytes);
    if (Degree > 1)
      BankConflicts += Degree - 1;
    return AccessLatency * Degree;
  }

  /// Worst-case lanes hitting one bank for a strided warp access.
  unsigned conflictDegree(Addr Offset, unsigned Lanes,
                          uint32_t StrideBytes) const {
    if (Lanes <= 1)
      return 1;
    // The degree only depends on the offset modulo one full bank rotation
    // (4 bytes/word * NumBanks words), so a tiny memo covers the handful
    // of (offset-phase, stride, lanes) shapes a kernel produces.
    const Addr Rotation = Addr(4) * NumBanks;
    Addr OffsetMod = isPowerOf2(Rotation) ? Offset & (Rotation - 1)
                                          : Offset % Rotation;
    size_t Slot = (size_t(OffsetMod) * 31 + size_t(StrideBytes) * 7 + Lanes) %
                  Memo.size();
    MemoEntry &E = Memo[Slot];
    if (E.OffsetMod == OffsetMod && E.Stride == StrideBytes &&
        E.Lanes == Lanes)
      return E.Degree;
    unsigned Degree = conflictDegreeUncached(OffsetMod, Lanes, StrideBytes);
    E = {OffsetMod, StrideBytes, Lanes, Degree};
    return Degree;
  }

  uint64_t sizeBytes() const { return SizeBytes; }
  Cycle latency() const { return AccessLatency; }
  unsigned numBanks() const { return NumBanks; }

  uint64_t readCount() const { return Reads; }
  uint64_t writeCount() const { return Writes; }
  uint64_t bankConflictCount() const { return BankConflicts; }

private:
  /// Memoized conflict degrees. The degree is a pure function of
  /// (Offset mod 4*NumBanks, StrideBytes, Lanes): adding any multiple of
  /// 4*NumBanks to the offset shifts every lane's word index by the same
  /// multiple of NumBanks, preserving both bank assignment and word
  /// equality. Direct-mapped; collisions just recompute.
  struct MemoEntry {
    Addr OffsetMod = ~Addr(0);
    uint32_t Stride = 0;
    unsigned Lanes = 0;
    unsigned Degree = 0;
  };

  unsigned conflictDegreeUncached(Addr Offset, unsigned Lanes,
                                  uint32_t StrideBytes) const;
  /// The fatal error of an out-of-bounds access, out of line.
  [[noreturn]] static void outOfBounds();

  uint64_t SizeBytes;
  Cycle AccessLatency;
  unsigned NumBanks;
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t BankConflicts = 0;
  mutable std::array<MemoEntry, 64> Memo{};
};

} // namespace hetsim

#endif // HETSIM_CACHE_SCRATCHPAD_H
