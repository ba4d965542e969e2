//===- memory/Tlb.cpp -----------------------------------------------------===//

#include "memory/Tlb.h"

#include "common/Error.h"

using namespace hetsim;

Tlb::Tlb(unsigned NumEntries, unsigned NumWays, uint64_t PageSize)
    : Ways(NumWays), PageBytes(PageSize), PageShift(log2Exact(PageSize)) {
  if (NumWays == 0 || NumEntries % NumWays != 0 ||
      !isPowerOf2(NumEntries / NumWays) || !isPowerOf2(PageSize))
    fatalError("invalid TLB geometry");
  NumSets = NumEntries / NumWays;
  Entries.resize(NumEntries);
}

void Tlb::fill(size_t SetBase, uint64_t Vpn) {
  ++Stats.Misses;
  // Fill the LRU (or first invalid) way.
  unsigned Victim = 0;
  for (unsigned W = 0; W != Ways; ++W) {
    Entry &E = Entries[SetBase + W];
    if (!E.Valid) {
      Victim = W;
      break;
    }
    if (E.Stamp < Entries[SetBase + Victim].Stamp)
      Victim = W;
  }
  Entry &E = Entries[SetBase + Victim];
  E.Valid = true;
  E.Vpn = Vpn;
  E.Stamp = NextStamp++;
  LastIndex = SetBase + Victim;
}

void Tlb::flush() {
  for (Entry &E : Entries)
    E.Valid = false;
}
