//===- cache/Mshr.h - Miss-status holding registers -------------*- C++ -*-===//
///
/// \file
/// MSHRs track outstanding line fills so that concurrent misses to the same
/// line merge onto one fill, and so a full MSHR file back-pressures the
/// core. The latency-walk timing model uses completion cycles rather than
/// events: an entry is live while its completion cycle is in the future.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CACHE_MSHR_H
#define HETSIM_CACHE_MSHR_H

#include "common/HostLine.h"
#include "common/Types.h"

#include <utility>

namespace hetsim {

/// Outcome of checking the MSHR file before issuing a miss.
struct MshrDecision {
  /// True if the miss merged onto an in-flight fill of the same line.
  bool Merged = false;
  /// Cycle at which the (merged or newly allocated) fill completes.
  Cycle ReadyCycle = 0;
  /// Extra cycles the requester stalled because the file was full.
  Cycle StallCycles = 0;
};

/// A bounded file of in-flight line fills.
class alignas(HostLineBytes) MshrFile {
public:
  explicit MshrFile(unsigned NumEntries) : Capacity(NumEntries) {}

  /// Records a miss on \p LineAddress observed at \p Now that would
  /// complete at \p FillDone if it issues immediately. Handles merging and
  /// full-file stalls; returns the final decision. \p MinReady floors the
  /// merged ReadyCycle: a merging access may have already accrued latency
  /// of its own (a TLB walk) that an earlier, cheaper fill must not
  /// erase.
  MshrDecision onMiss(Addr LineAddress, Cycle Now, Cycle FillDone,
                      Cycle MinReady = 0);

  unsigned capacity() const { return Capacity; }

  uint64_t mergedCount() const { return Merged; }
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
  /// line -> completion cycle. The file holds at most Capacity (16/32)
  /// entries, so flat storage with linear probes and swap-remove pruning
  /// stays in one or two cache lines; every decision (exact find, min,
  /// prune) is order-independent.
  HostLineVector<std::pair<Addr, Cycle>> Entries;
  /// The least completion cycle in Entries; ~0 when it is empty.
  Cycle EarliestDone = ~Cycle(0);
  uint64_t Merged = 0;
  uint64_t FullStalls = 0;
};

} // namespace hetsim

#endif // HETSIM_CACHE_MSHR_H
