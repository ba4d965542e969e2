//===- cache/Mshr.h - Miss-status holding registers -------------*- C++ -*-===//
///
/// \file
/// MSHRs track outstanding line fills so that a full MSHR file
/// back-pressures the core. Every miss takes an entry of its own: a second
/// miss to a line already in flight issues its own fill, which completes
/// when its own walk does. The latency-walk timing model uses completion
/// cycles rather than events: an entry is live while its completion cycle
/// is in the future.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CACHE_MSHR_H
#define HETSIM_CACHE_MSHR_H

#include "common/HostLine.h"
#include "common/Types.h"

namespace hetsim {

/// A bounded file of in-flight line fills.
class alignas(HostLineBytes) MshrFile {
public:
  explicit MshrFile(unsigned NumEntries) : Capacity(NumEntries) {}

  /// Records a miss observed at \p Now that would complete at \p FillDone
  /// if it issued immediately, and returns the cycles it stalls first: a
  /// full file holds it until the earliest in-flight fill retires. Its
  /// fill completes at \p FillDone plus the stall.
  Cycle onMiss(Cycle Now, Cycle FillDone);

  uint64_t fullStallCount() const { return FullStalls; }

private:
  /// Drops the entries completed by \p Now. Inline: most misses find
  /// nothing to drop, which EarliestDone answers without a scan.
  void prune(Cycle Now) {
    if (Now >= EarliestDone)
      pruneCompleted(Now);
  }
  void pruneCompleted(Cycle Now);

  unsigned Capacity;
  /// Completion cycles of the in-flight fills. The file holds at most
  /// Capacity (16/32) entries, so flat storage with swap-remove pruning
  /// stays in one or two cache lines; every decision (min, prune) is
  /// order-independent.
  HostLineVector<Cycle> Entries;
  /// The least completion cycle in Entries; ~0 when it is empty.
  Cycle EarliestDone = ~Cycle(0);
  uint64_t FullStalls = 0;
};

} // namespace hetsim

#endif // HETSIM_CACHE_MSHR_H
