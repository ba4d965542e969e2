//===- cache/Mshr.cpp -----------------------------------------------------===//

#include "cache/Mshr.h"

#include <algorithm>
#include <cassert>

using namespace hetsim;

void MshrFile::pruneCompleted(Cycle Now) {
  EarliestDone = ~Cycle(0);
  for (size_t I = 0; I != Entries.size();) {
    if (Entries[I] <= Now) {
      Entries[I] = Entries.back();
      Entries.pop_back();
    } else {
      EarliestDone = std::min(EarliestDone, Entries[I]);
      ++I;
    }
  }
}

Cycle MshrFile::onMiss(Cycle Now, Cycle FillDone) {
  assert(FillDone >= Now && "fill completes in the past");
  prune(Now);

  Cycle Stall = 0;
  if (Entries.size() >= Capacity) {
    // Stall until the earliest in-flight fill retires its entry.
    Cycle Earliest = std::min(FillDone, EarliestDone);
    ++FullStalls;
    Stall = Earliest > Now ? Earliest - Now : 0;
    prune(Earliest);
  }

  Cycle Done = FillDone + Stall;
  Entries.push_back(Done);
  EarliestDone = std::min(EarliestDone, Done);
  return Stall;
}
